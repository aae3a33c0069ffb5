#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "env/backend.hpp"
#include "env/multi_slice.hpp"

namespace atlas::env {

class EnvService;
class ShardRouter;

/// Future-like handle returned by EnvClient::submit.
class QueryHandle {
 public:
  QueryHandle() = default;

  /// Monotonic id of the submission (0 for a default-constructed handle).
  std::uint64_t id() const noexcept { return id_; }
  bool valid() const noexcept { return future_.valid(); }

  /// Block until the episode completes and return its result (at most once).
  /// Throws std::logic_error when the handle is default-constructed,
  /// moved-from, or already consumed (never UB).
  EpisodeResult get();
  /// Block until the episode completes; no-op on an invalid handle.
  void wait() const {
    if (future_.valid()) future_.wait();
  }
  /// Whether the episode has completed, without blocking. False on an
  /// invalid handle, so false again once get() has consumed the result.
  bool ready() const {
    return future_.valid() &&
           future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

 private:
  friend class EnvService;
  QueryHandle(std::uint64_t id, std::future<EpisodeResult> future)
      : id_(id), future_(std::move(future)) {}

  std::uint64_t id_ = 0;
  std::future<EpisodeResult> future_;
};

/// The FarmController's own counters (FarmState: membership, re-dispatches,
/// hedges), filled when a controller is attached to the reporting
/// ShardRouter (env/farm_controller.hpp). Client-side bookkeeping — not part
/// of the wire stats snapshot. Reconnects are counted in the backend rows
/// only.
struct FarmView {
  bool active = false;  ///< a FarmController is (or was) attached
  std::uint64_t workers = 0;          ///< workers ever admitted
  std::uint64_t workers_serving = 0;  ///< gauge: currently healthy
  std::uint64_t workers_suspect = 0;  ///< gauge: missed heartbeats, not yet dead
  std::uint64_t workers_joined = 0;
  std::uint64_t workers_lost = 0;     ///< declared dead (missed-heartbeat limit)
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t episodes_redispatched = 0;  ///< re-run on a replica after a worker fault
  std::uint64_t hedges = 0;      ///< hedged second attempts launched
  std::uint64_t hedge_wins = 0;  ///< hedges whose SECOND attempt returned first
};

/// Declared only for EnvClient::attach_speculation, which pipebench overrides.
class SpeculationState;

/// Service-wide accounting snapshot.
struct EnvServiceStats {
  std::vector<BackendStats> backends;
  std::uint64_t offline_queries = 0;  ///< Cheap (simulator) queries.
  std::uint64_t online_queries = 0;   ///< Metered real-network interactions.
  /// Sums of the backend rows' shims (see BackendStats); kept only because
  /// pipebench reads them. Not on the wire.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Serving telemetry (src/telemetry/), merged across shards by ShardRouter:
  /// per-query service latency and the queue depth observed at each
  /// submission/run, both always-on.
  telemetry::HistogramData query_latency_ns;
  telemetry::HistogramData queue_depth;
  /// Worker-side RPC service time (decode -> response encoded). Only filled
  /// on snapshots exported by an EpisodeRpcServer (the wire stats snapshot);
  /// empty for purely in-process clients.
  telemetry::HistogramData rpc_service_ns;
  /// Farm-membership counters; `farm.active` only when a FarmController is
  /// attached to the reporting router.
  FarmView farm;

  /// Append one backend row and add its counters to the totals.
  void add_backend(BackendStats backend);

  /// The counters accumulated between `start` and this snapshot, so a caller
  /// on a long-lived client can report one phase's queries. Backend rows
  /// pair up by index. The farm's event counters are subtracted too; its
  /// gauges (`workers`, `workers_serving`, `workers_suspect`) keep this
  /// snapshot's values.
  EnvServiceStats since(const EnvServiceStats& start) const;

  std::uint64_t total_queries() const noexcept { return offline_queries + online_queries; }

  /// One coherent serving report: a per-backend table (kind, queries,
  /// episodes, rpc retries/failures, and RPC latency
  /// quantiles where measured) plus a totals row with the service-level
  /// query-latency quantiles. Every serving surface (examples, loadgen,
  /// benches) prints THIS instead of a hand-rolled subset.
  common::Table summary() const;
};

/// The query surface every Atlas stage talks to: a registry of `EnvBackend`s
/// addressed by `BackendId` plus batch execution and accounting.
/// `EnvService` implements it with one pool; `ShardRouter`
/// fans the same address space across many services (and, via
/// `rpc::RemoteBackend`, across hosts). Stages take an `EnvClient&`, so the
/// same pipeline runs against one process or a whole farm unchanged.
class EnvClient {
 public:
  virtual ~EnvClient() = default;

  // ---- backend registry ----------------------------------------------------

  /// Register an execution target (local, remote, testbed — anything
  /// implementing `EnvBackend`). Name and kind come from the backend.
  virtual BackendId register_backend(std::shared_ptr<const EnvBackend> backend) = 0;

  /// Register a caller-owned environment. The reference must outlive the
  /// client (use the shared_ptr overload for client-owned backends).
  BackendId register_backend(const NetworkEnvironment& environment, std::string name,
                             BackendKind kind);
  BackendId register_backend(std::shared_ptr<const NetworkEnvironment> environment,
                             std::string name, BackendKind kind);

  /// Client-owned simulator with the given Table 3 parameters (offline).
  BackendId add_simulator(const SimParams& params = SimParams::defaults(),
                          std::string name = "simulator");
  /// Client-owned testbed surrogate (online, metered).
  BackendId add_real_network(std::string name = "real");
  /// Client-owned multi-slice deployment: queries drive the target slice,
  /// `background` tenants are fixed (offline unless `kind` says otherwise).
  BackendId add_multi_slice(NetworkProfile profile, std::vector<SliceSpec> background,
                            std::string name = "multi-slice",
                            BackendKind kind = BackendKind::kOffline);

  virtual std::size_t backend_count() const = 0;
  virtual const std::string& backend_name(BackendId id) const = 0;
  virtual BackendKind backend_kind(BackendId id) const = 0;

  // ---- queries -------------------------------------------------------------

  /// Run one query synchronously on the calling thread.
  virtual EpisodeResult run(const EnvQuery& query) = 0;
  EpisodeResult run(BackendId backend, const SliceConfig& config, const Workload& workload);

  /// Enqueue one query on the owning pool and return a handle to its result.
  virtual QueryHandle submit(EnvQuery query) = 0;

  /// Ignores the token and submits. Kept only because pipebench overrides it.
  virtual QueryHandle submit_cancellable(EnvQuery query,
                                         std::shared_ptr<const CancelToken> cancel) {
    (void)cancel;
    return submit(std::move(query));
  }

  /// Run a batch across the owning pool(s); results are positionally ordered.
  virtual std::vector<EpisodeResult> run_batch(std::span<const EnvQuery> queries) = 0;

  /// Convenience: QoE = Pr(latency <= threshold) of one episode / a batch.
  double measure_qoe(const EnvQuery& query, double threshold_ms);
  double measure_qoe(BackendId backend, const SliceConfig& config, const Workload& workload,
                     double threshold_ms);
  std::vector<double> measure_qoe_batch(std::span<const EnvQuery> queries, double threshold_ms);

  // ---- accounting ----------------------------------------------------------

  virtual BackendStats backend_stats(BackendId id) const = 0;
  virtual EnvServiceStats stats() const = 0;
  virtual void reset_stats() = 0;

  /// Queries submitted but not yet resolved, summed across shards. Default 0:
  /// clients without queue accounting.
  virtual std::size_t outstanding_queries() const { return 0; }

  /// A no-op. Kept only because pipebench overrides it.
  virtual void attach_speculation(std::shared_ptr<const SpeculationState> speculation) {
    (void)speculation;
  }

  /// Always 0: nothing is memoized. Kept only because pipebench overrides it.
  virtual std::size_t cache_size() const { return 0; }
  /// A no-op. Kept only because pipebench overrides it.
  virtual void clear_cache() {}
};

}  // namespace atlas::env
