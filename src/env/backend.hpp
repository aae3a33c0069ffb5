#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "env/environment.hpp"
#include "env/episode.hpp"
#include "env/sim_params.hpp"
#include "env/slice_config.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::env {

/// How queries against a backend are metered. Every Atlas stage is built on
/// the same loop — query an environment, observe, update a model — but the
/// COST of a query differs wildly: simulator episodes are free, while every
/// real-network episode is served to live slice users (SLA exposure, the
/// paper's sample-efficiency currency).
enum class BackendKind {
  kOffline,  ///< Cheap and parallel (simulator / multi-slice sim).
  kOnline,   ///< Metered: each query is a real interaction.
};

/// Opaque handle to a registered backend. Index into a service registry.
using BackendId = std::uint32_t;

/// Cooperative cancellation token for hedged execution: the owner flips it,
/// a cancellable backend observes it mid-wait and abandons the attempt by
/// throwing EpisodeCancelled.
using CancelToken = std::atomic<bool>;

/// Thrown by a cancellable execute when its CancelToken fired. Distinct from
/// a real failure: a hedging loser's cancellation is NOT a worker fault and
/// must not move the farm health machine.
struct EpisodeCancelled : std::runtime_error {
  EpisodeCancelled() : std::runtime_error("episode cancelled (hedge loser)") {}
};

/// One environment query: which backend, which configuration interval.
/// `sim_params` optionally overrides the Table 3 simulation parameters for
/// this query only (Stage 1 evaluates a different parameter vector per
/// query); it is valid only on backends that accept overrides.
struct EnvQuery {
  BackendId backend = 0;
  SliceConfig config;
  Workload workload;
  std::optional<SimParams> sim_params;
};

/// Per-backend accounting. `queries` counts everything routed through the
/// service; `episodes` counts the executions that returned. Every query runs
/// its episode, so the two are equal unless an episode threw (for online
/// backends that equality IS the SLA-exposure meter).
struct BackendStats {
  std::string name;
  BackendKind kind = BackendKind::kOffline;
  std::uint64_t queries = 0;  ///< Queries routed to this backend.
  /// Kept only because pipebench reads them, filled by
  /// EnvService::backend_stats alone: hits read 0, and misses read `queries`
  /// on an offline row (0 on an online one). Not on the wire.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t episodes = 0;      ///< Environment executions.
  std::uint64_t rpc_retries = 0;   ///< Transport-level retries (remote backends only).
  std::uint64_t rpc_failures = 0;  ///< Queries that exhausted retries or hard-failed remotely.
  std::uint64_t rpc_reconnects = 0;  ///< Successful connection re-establishments (remote only).
  /// Round-trip latency of successful episode RPCs in nanoseconds (remote
  /// backends only; empty for local ones). Filled by fill_stats.
  telemetry::HistogramData rpc_rtt_ns;

  /// Always 0: no query is refused. Kept only because pipebench reads it.
  std::uint64_t rejected() const noexcept { return 0; }
};

/// The polymorphic execution target behind a `BackendId`: an in-process
/// environment, a remote episode-RPC worker, a testbed — anything that can
/// turn an `EnvQuery` into an `EpisodeResult`. The paper treats the
/// simulator, the real network, and testbed farms as interchangeable query
/// targets that differ only in COST; this interface is that contract.
///
/// Implementations must be const-reentrant: the service calls `execute`
/// concurrently from a thread pool (internal mutable state needs its own
/// synchronization).
class EnvBackend {
 public:
  virtual ~EnvBackend() = default;

  /// Run one configuration interval described by `query`. The query's
  /// `backend` field is the CALLER's id for this backend and is ignored here
  /// (remote backends rewrite it to the worker-side id before forwarding).
  virtual EpisodeResult execute(const EnvQuery& query) const = 0;

  /// Cancellable variant used by hedged dispatch: implementations that can
  /// abandon an in-flight attempt (remote backends waiting on an RPC reply)
  /// poll `cancel` and throw EpisodeCancelled when it fires. The default
  /// ignores the token — a local episode is milliseconds of CPU, cheaper to
  /// finish than to interrupt, and its result is bit-identical either way.
  virtual EpisodeResult execute_cancellable(const EnvQuery& query,
                                            const CancelToken& cancel) const {
    (void)cancel;
    return execute(query);
  }

  virtual BackendKind kind() const noexcept = 0;
  virtual const std::string& name() const noexcept = 0;

  /// Always 1.0; nothing reads it. Kept only because pipebench overrides it.
  virtual double cost_hint() const noexcept { return 1.0; }

  /// Whether per-query `SimParams` overrides are meaningful here (Stage 1
  /// sends one parameter vector per query). Only simulator-like backends
  /// should accept them; metered backends must reject them.
  virtual bool accepts_sim_params() const noexcept { return false; }

  /// Add backend-specific fields (rpc_retries / rpc_failures) to a stats
  /// snapshot; counters maintained by the service are already filled in.
  virtual void fill_stats(BackendStats& stats) const { (void)stats; }

  /// Zero any backend-owned counters reported via fill_stats, so
  /// EnvService::reset_stats() clears the WHOLE BackendStats snapshot
  /// (per-phase accounting must not inherit last phase's rpc failures).
  /// Const for the same reason execute() is: called through the shared
  /// registry pointer; implementations use their own synchronization.
  virtual void reset_stats() const {}
};

/// An in-process `NetworkEnvironment` behind the `EnvBackend` contract —
/// what `EnvService::add_simulator` / `add_real_network` / `add_multi_slice`
/// register under the hood.
class LocalBackend final : public EnvBackend {
 public:
  LocalBackend(std::shared_ptr<const NetworkEnvironment> environment, std::string name,
               BackendKind kind);

  EpisodeResult execute(const EnvQuery& query) const override;
  BackendKind kind() const noexcept override { return kind_; }
  const std::string& name() const noexcept override { return name_; }
  bool accepts_sim_params() const noexcept override { return is_simulator_; }

  const NetworkEnvironment& environment() const noexcept { return *env_; }

 private:
  std::shared_ptr<const NetworkEnvironment> env_;
  std::string name_;
  BackendKind kind_;
  bool is_simulator_;  ///< Only Simulator backends honor sim_params overrides.
};

}  // namespace atlas::env
