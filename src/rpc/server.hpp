#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/farm_types.hpp"
#include "rpc/transport.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::rpc {

struct RpcServerOptions {
  std::uint16_t port = 0;  ///< TCP port on 127.0.0.1; 0 = ephemeral (see port()).
  /// How long stop() waits for dispatched episodes to finish (and their
  /// responses to flush) before closing connections anyway. 0 = no grace:
  /// legacy hard-close behavior.
  std::uint32_t drain_timeout_ms = 5000;
};

/// Hosts an `EnvService` behind the episode-RPC: each query frame is
/// dispatched onto the service's pool (so one connection pipelines many
/// concurrent episodes) and answered with a result or error frame tagged by
/// the request id — responses may be reordered; the client's multiplexer
/// matches them back up. This is the worker side of `RemoteBackend` and the
/// core of the `atlas_episode_worker` binary.
class EpisodeRpcServer {
 public:
  /// Binds 127.0.0.1:port and starts accepting. `service` must outlive the
  /// server.
  EpisodeRpcServer(env::EnvService& service, RpcServerOptions options = {});
  ~EpisodeRpcServer();

  EpisodeRpcServer(const EpisodeRpcServer&) = delete;
  EpisodeRpcServer& operator=(const EpisodeRpcServer&) = delete;

  /// Actual bound port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Stop accepting, drain in-flight episodes (bounded by
  /// `drain_timeout_ms`), then close every connection and join all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Serve one already-connected transport until the peer closes (blocking).
  /// The accept loop uses this per connection; tests call it directly with a
  /// loopback endpoint to exercise the full RPC path without sockets.
  void serve(Transport& transport);

  /// Server-side service time (decode done -> response encoded) of every
  /// episode answered so far; exported to clients via kStatsRequest.
  telemetry::HistogramData service_time() const { return service_time_.snapshot(); }

  // ---- farm control plane -------------------------------------------------

  /// What this worker tells a controller on kHello: every registered
  /// backend with its placement digest (see set_backend_digest).
  env::WorkerAnnounce announce() const;

  /// Record the parameterization fingerprint for a backend (the worker binary
  /// digests its SimParams at startup). Backends without a digest
  /// announce 0 — equivalent only to other
  /// digest-0 backends of the same kind.
  void set_backend_digest(env::BackendId id, std::uint64_t digest);

  /// Queries dropped (pre-execution or pre-response) by kCancel frames.
  std::uint64_t cancelled_total() const noexcept {
    return cancelled_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    std::unique_ptr<Transport> transport;
    std::thread thread;
    std::atomic<bool> finished{false};  ///< serve() returned; safe to reap.
  };

  void accept_loop();
  std::uint64_t backend_digest(env::BackendId id) const;

  env::EnvService& service_;
  RpcServerOptions options_;
  TcpListener listener_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool stopped_ = false;  ///< Guarded by connections_mutex_.
  std::thread acceptor_;

  telemetry::Histogram service_time_;
  mutable std::mutex digests_mutex_;
  std::vector<std::uint64_t> digests_;  ///< Indexed by BackendId; 0 = unset.
  std::atomic<std::uint64_t> cancelled_total_{0};
  /// Episodes dispatched onto the pool whose responses have not been written
  /// yet, across ALL connections — what stop() waits on before hard-closing.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::int64_t in_flight_ = 0;  ///< Guarded by drain_mutex_.
};

}  // namespace atlas::rpc
