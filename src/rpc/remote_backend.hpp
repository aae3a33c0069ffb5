#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include <chrono>
#include <vector>

#include "env/backend.hpp"
#include "env/client.hpp"
#include "env/farm_types.hpp"
#include "rpc/transport.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::rpc {

enum class MsgType : std::uint16_t;  // rpc/codec.hpp

/// The millisecond fields must be finite, >= 0 and at most one day, and the
/// two timeouts > 0, or RemoteBackend's constructor throws
/// std::invalid_argument.
struct RemoteBackendOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Name under which the backend reports in BackendStats.
  std::string name = "remote";
  /// How the OWNING service meters queries to this backend. A remote
  /// simulator farm is kOffline; a remote testbed is kOnline (every query is
  /// a metered real interaction).
  env::BackendKind kind = env::BackendKind::kOffline;
  /// Backend id inside the WORKER's EnvService that queries are rewritten
  /// to (a worker registers its backends 0..N-1 at startup).
  env::BackendId remote_backend = 0;
  /// Per-attempt timeout. A request that misses it is abandoned (a late
  /// response is dropped by the multiplexer, and a best-effort kCancel tells
  /// the worker to skip the episode if still queued) and retried; each retry
  /// waits the full timeout again.
  double timeout_ms = 30000.0;
  /// Deadline for control-plane round-trips (hello / heartbeat / stats).
  /// Much shorter than an episode: these answer on the worker's read
  /// thread, so a slow answer means a sick worker.
  double control_timeout_ms = 5000.0;
  /// Reconnect backoff: FAILED connect attempts (the transport factory
  /// throwing) are spaced out exponentially with deterministic jitter, so a
  /// dead worker is not hammered in lockstep from every shard. A successful
  /// connect resets the schedule; dropping a live connection (worker
  /// restarted) still reconnects immediately on the next attempt.
  double backoff_base_ms = 10.0;
  double backoff_cap_ms = 2000.0;
  /// Additional attempts after the first, for timeouts and transport faults.
  /// Worker-reported errors (bad query) are NOT retried — they are
  /// deterministic. Offline episodes retry safely: results are
  /// deterministic per seed, so a retry that runs the episode a second time
  /// on the worker (say, while the timed-out first attempt is still running)
  /// returns an identical result — wasted cycles, never wrong. A
  /// kOnline backend is at-most-once: after the query is on the wire, any
  /// fault fails with RpcError instead of re-running a metered live
  /// interaction the worker may already have executed. Connect/send
  /// failures (query never reached the worker) retry for both kinds.
  int max_retries = 2;
  /// Whether per-query SimParams overrides are forwarded (the worker-side
  /// backend still validates); Stage 1 against a remote simulator needs it.
  bool accepts_sim_params = true;
  /// Test seam: build the connection from something other than TCP (e.g. a
  /// loopback endpoint served by an in-process EpisodeRpcServer). Called on
  /// (re)connect; must return a fresh transport or throw TransportError.
  std::function<std::unique_ptr<Transport>()> transport_factory;
};

/// An episode-RPC worker behind the `EnvBackend` contract: `execute`
/// serializes the query (bit-identical wire codec), sends it over a
/// multiplexed connection, and blocks for the tagged response. Many service
/// pool threads call `execute` concurrently; all share one connection whose
/// reader thread demultiplexes responses by request id.
///
/// Failures surface two ways: counters (`rpc_retries`, `rpc_failures`,
/// `rpc_reconnects` and the RTT histogram, read through `fill_stats` into
/// this backend's `BackendStats` row) and, once retries are exhausted, an
/// `RpcError` thrown to the caller. Worker health is the FarmController's
/// call, from heartbeat() round-trips and data-plane faults.
class RemoteBackend final : public env::EnvBackend {
 public:
  explicit RemoteBackend(RemoteBackendOptions options);
  ~RemoteBackend() override;

  env::EpisodeResult execute(const env::EnvQuery& query) const override;
  /// Hedge-aware execute: polls `cancel` while parked on the RPC future and,
  /// when it fires, abandons the request (forget + best-effort kCancel to the
  /// worker) and throws env::EpisodeCancelled — the losing half of a hedged
  /// dispatch stops consuming a connection slot within milliseconds.
  env::EpisodeResult execute_cancellable(const env::EnvQuery& query,
                                         const env::CancelToken& cancel) const override;
  env::BackendKind kind() const noexcept override { return options_.kind; }
  const std::string& name() const noexcept override { return options_.name; }
  bool accepts_sim_params() const noexcept override { return options_.accepts_sim_params; }
  void fill_stats(env::BackendStats& stats) const override;
  void reset_stats() const noexcept override {
    retries_.store(0, std::memory_order_relaxed);
    failures_.store(0, std::memory_order_relaxed);
    reconnects_.store(0, std::memory_order_relaxed);
    rtt_.reset();
  }

  std::uint64_t rpc_retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t rpc_failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }
  /// Successful connection re-establishments (connects after the first one),
  /// whatever dropped the previous stream: worker restart, transport fault,
  /// or a poisoned frame. Surfaced as BackendStats::rpc_reconnects.
  std::uint64_t rpc_reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Scrape the WORKER's own serving stats (per-backend counters + service
  /// telemetry) over the live connection — the farm-wide view a router
  /// cannot compute from client-side counters alone. Throws RpcError on
  /// timeout or a worker that speaks another wire version.
  env::EnvServiceStats fetch_worker_stats() const;

  // ---- farm control plane (all throw RpcError on failure) -------------------

  /// Ask the worker which backends it hosts, with their placement digests.
  /// The wire version needs no field: every frame's header carries it.
  env::WorkerAnnounce hello() const;
  /// One liveness round-trip: the worker's health gauges.
  env::WorkerHealth heartbeat() const;

 private:
  class MuxConnection;

  /// Current connection, (re)built lazily under conn_mutex_. A dead
  /// connection (reader saw EOF/fault) is dropped and rebuilt on the next
  /// attempt; repeated CONNECT failures back off exponentially with jitter.
  std::shared_ptr<MuxConnection> connection() const;
  void drop_connection(const std::shared_ptr<MuxConnection>& dead) const;
  std::chrono::nanoseconds backoff_delay(std::uint64_t failures) const;
  /// One control-plane request/response: sends `frame` (built for a fresh
  /// request id), waits `control_timeout_ms`, validates the response type,
  /// and returns the raw response frame positioned for body decoding.
  std::vector<std::uint8_t> control_roundtrip(
      const std::function<std::vector<std::uint8_t>(std::uint64_t)>& encode, MsgType expect,
      const char* what) const;
  /// Shared body of execute / execute_cancellable (`cancel` may be null).
  env::EpisodeResult execute_impl(const env::EnvQuery& query,
                                  const env::CancelToken* cancel) const;

  RemoteBackendOptions options_;
  mutable std::mutex conn_mutex_;
  mutable std::shared_ptr<MuxConnection> conn_;
  /// Backoff schedule, guarded by conn_mutex_.
  mutable std::uint64_t connect_failures_ = 0;
  mutable std::chrono::steady_clock::time_point next_connect_attempt_{};
  mutable bool ever_connected_ = false;  ///< guarded by conn_mutex_
  mutable std::atomic<std::uint64_t> next_request_id_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  mutable std::atomic<std::uint64_t> reconnects_{0};
  /// Round-trip latency (send -> decoded result) of every successful episode
  /// RPC, exported through `fill_stats` as `BackendStats::rpc_rtt_ns`.
  mutable telemetry::Histogram rtt_;
};

}  // namespace atlas::rpc
