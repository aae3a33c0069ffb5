#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "env/backend.hpp"
#include "env/farm_types.hpp"
#include "env/shard_router.hpp"

namespace atlas::env {

/// Worker lifecycle (README "Farm control plane"):
///
///   joining -> serving <-> suspect -> dead
///
/// `serving` answers heartbeats and takes traffic; `suspect` missed one (or a
/// data-plane fault was reported) and is deprioritized but not abandoned;
/// `dead` is removed from every FailoverBackend. These states are the farm's
/// only replica-health model. Episodes are deterministic per seed, so an
/// offline episode lost with a worker is safely re-dispatched.
enum class WorkerState : std::uint8_t {
  kJoining = 0,
  kServing = 1,
  kSuspect = 2,
  kDead = 3,
};

const char* to_string(WorkerState state) noexcept;

/// Control-plane handle to one worker, transport-agnostic: the rpc layer
/// adapts RemoteBackend's control-plane round-trips onto this
/// (rpc/worker_control.hpp), and tests drive the controller with in-process
/// fakes. All methods may throw (std::exception) on a sick worker; heartbeat
/// failure IS the liveness signal.
class WorkerControl {
 public:
  virtual ~WorkerControl() = default;

  /// Display address ("host:port" or a fake's label) for logs and tests.
  virtual const std::string& address() const noexcept = 0;

  virtual WorkerAnnounce hello() = 0;
  virtual WorkerHealth heartbeat() = 0;

  /// Data-plane executor for one of this worker's announced backends
  /// (`remote_backend` = index in the announce). The FarmController wraps
  /// these in FailoverBackends.
  virtual std::shared_ptr<const EnvBackend> make_backend(const WorkerBackendInfo& info,
                                                         BackendId remote_backend) = 0;
};

class FarmController;

/// When to hedge an episode onto a second replica. Disabled by default — the
/// farm behaves exactly as before unless a deployment opts in. Metered
/// (kOnline) backends are never hedged. The millisecond fields must be
/// finite, >= 0 and at most one day, or FailoverBackend's constructor throws
/// std::invalid_argument.
struct HedgePolicy {
  bool enabled = false;
  /// The hedge delay is learned from the replicas' observed rpc_rtt_ns
  /// distribution: once `min_samples` RTTs exist, an attempt that outlives
  /// the 95th percentile of past episodes is probably stuck, and a second
  /// attempt is launched on the next candidate replica (first response wins;
  /// the loser is cancelled via the wire kCancel). The learned delay is
  /// clamped to [1 ms, 1000 ms].
  std::uint64_t min_samples = 32;
  /// Delay used BEFORE min_samples RTTs exist. 0 = don't hedge until the
  /// distribution is learned; tests and loadgen set it explicitly.
  double fallback_delay_ms = 0.0;
  /// Wall-clock staleness bound on the cached quantile: a delay older than
  /// this is recomputed on the next call even if the call-count cadence has
  /// not rolled over, so a farm that idles across an RTT regime change (e.g.
  /// failover to a slower replica) never hedges on pre-idle numbers.
  double refresh_interval_ms = 1000.0;
};

/// Shared farm counters. Owned jointly by the controller, every
/// FailoverBackend, and the router's stats path, so the counts survive the
/// controller's destruction (a final stats() after shutdown still reports
/// the farm's history). The controller back-pointer is nulled in
/// ~FarmController; fault reports after that are counted but change nothing.
class FarmState {
 public:
  std::atomic<std::uint64_t> workers_total{0};
  std::atomic<std::uint64_t> workers_serving{0};
  std::atomic<std::uint64_t> workers_suspect{0};
  std::atomic<std::uint64_t> workers_joined{0};
  std::atomic<std::uint64_t> workers_lost{0};
  std::atomic<std::uint64_t> heartbeats_missed{0};
  std::atomic<std::uint64_t> episodes_redispatched{0};
  std::atomic<std::uint64_t> hedges{0};
  std::atomic<std::uint64_t> hedge_wins{0};

  FarmView view() const;

  /// Data-plane fault escalation from a FailoverBackend: marks the worker
  /// suspect on the (still-live) controller, so placement shuns it before
  /// the next heartbeat sweep confirms or clears the suspicion.
  void report_fault(std::uint32_t worker);

 private:
  friend class FarmController;
  mutable std::mutex controller_mutex_;
  FarmController* controller_ = nullptr;  ///< Guarded by controller_mutex_.
};

/// A replicated EnvBackend: one stable BackendId whose episodes execute on
/// whichever live worker replica answers. The id stays stable across worker
/// loss, so a caller's queries and its accounting row never move.
///
/// Replica selection: round-robin over serving replicas; suspect replicas
/// are a fallback, dead ones are skipped. On a replica fault the episode is
/// re-dispatched to the next candidate (deterministic per seed, so the
/// result is identical) and `episodes_redispatched` counts it. The fault
/// also marks the worker suspect at once (FarmState::report_fault), so the
/// rest of the batch avoids it; the next heartbeat sweep clears or confirms
/// the suspicion. A brown-out worker — episodes fail, heartbeats answer —
/// therefore costs one failed attempt per sweep.
///
/// A metered (kOnline) backend runs each query at most once: on its first
/// candidate, with no hedge and no re-dispatch. A failed attempt may already
/// have run its live interaction, so the fault is reported and rethrown.
class FailoverBackend final : public EnvBackend {
 public:
  FailoverBackend(WorkerBackendInfo descriptor, std::shared_ptr<FarmState> farm,
                  HedgePolicy hedge = {});

  EpisodeResult execute(const EnvQuery& query) const override;
  BackendKind kind() const noexcept override { return descriptor_.kind; }
  const std::string& name() const noexcept override { return descriptor_.name; }
  bool accepts_sim_params() const noexcept override { return descriptor_.accepts_sim_params; }
  /// Sums replica-level rpc retries/failures/rtt into the snapshot.
  void fill_stats(BackendStats& stats) const override;
  void reset_stats() const override;

  /// Membership, driven by the FarmController. `health` is the worker-level
  /// state cell (WorkerState as int) shared by all replicas on that worker.
  void add_replica(std::shared_ptr<const EnvBackend> backend, std::uint32_t worker,
                   std::shared_ptr<const std::atomic<int>> health);
  void remove_worker(std::uint32_t worker);

  /// Current hedge delay in ms (<= 0 when hedging is off or not yet armed);
  /// exposed for tests.
  double hedge_delay_ms() const;

 private:
  struct Replica {
    std::shared_ptr<const EnvBackend> backend;
    std::uint32_t worker = 0;
    std::shared_ptr<const std::atomic<int>> health;
  };
  using ReplicaList = std::vector<Replica>;

  std::shared_ptr<const ReplicaList> snapshot() const {
    return replicas_.load(std::memory_order_acquire);
  }

  /// Candidate replica indexes in dispatch order: serving first, round-robin
  /// rotated; then non-dead fallbacks; then, only if that leaves nothing,
  /// everyone (a stale cell beats failing the episode).
  std::vector<std::size_t> candidate_order(const ReplicaList& replicas) const;
  /// Run candidates[0] and, if it outlives the hedge delay, candidates[1]
  /// concurrently; first response wins and the loser is cancelled. Returns
  /// false if every hedged attempt failed (caller falls back to the
  /// remaining candidates); `faulted` reports whether any attempt faulted.
  bool execute_hedged(const EnvQuery& query, const ReplicaList& replicas,
                      const std::vector<std::size_t>& candidates, double hedge_ms,
                      EpisodeResult& result, std::exception_ptr& last, bool& faulted) const;

  WorkerBackendInfo descriptor_;
  std::shared_ptr<FarmState> farm_;
  HedgePolicy hedge_;
  mutable std::mutex mutex_;  ///< Serializes membership writers.
  std::atomic<std::shared_ptr<const ReplicaList>> replicas_;
  mutable std::atomic<std::uint64_t> rr_{0};
  /// Learned hedge delay, refreshed from the replicas' RTT histograms every
  /// kHedgeRefresh executes AND whenever the cached value is older than
  /// hedge_.refresh_interval_ms (<= 0 = not armed).
  mutable std::atomic<std::uint64_t> hedge_calls_{0};
  mutable std::atomic<double> hedge_delay_cache_ms_{0.0};
  /// steady_clock time of the last quantile recompute, in ns since the
  /// clock's epoch (0 = never — the call-count trigger covers the first call).
  mutable std::atomic<std::int64_t> hedge_refreshed_ns_{0};
};

struct FarmControllerOptions {
  /// Heartbeat sweep period of the monitor thread (start()).
  std::uint32_t heartbeat_interval_ms = 250;
  /// Missed heartbeats before a serving worker turns suspect / dead.
  std::uint32_t suspect_after_misses = 1;
  std::uint32_t dead_after_misses = 3;
  /// Tail-latency hedging for every FailoverBackend this controller creates.
  HedgePolicy hedge;
};

/// The farm's registry and health authority, attached to a ShardRouter.
/// Replaces flags-frozen placement: workers join at runtime (add_worker),
/// their announced backends enter the LIVE BackendId space as FailoverBackend
/// replicas (same equivalence key -> same global id), missed heartbeats
/// demote them suspect -> dead (poll_once / the start() monitor thread).
///
/// Thread-safe; poll_once may be driven manually (tests) or by start().
class FarmController {
 public:
  explicit FarmController(ShardRouter& router, FarmControllerOptions options = {});
  ~FarmController();

  FarmController(const FarmController&) = delete;
  FarmController& operator=(const FarmController&) = delete;

  /// Admit a worker: hello() -> every announced backend either joins the
  /// FailoverBackend with the same equivalence key or registers a fresh one
  /// with the router (new global id). Returns the worker's farm index.
  /// Throws if hello() fails — a worker that cannot announce is not admitted.
  std::uint32_t add_worker(std::shared_ptr<WorkerControl> control);

  /// One heartbeat sweep over serving/suspect workers. Success clears
  /// suspicion; failure escalates serving -> suspect -> dead per options.
  void poll_once();

  /// Run poll_once every heartbeat_interval_ms on a monitor thread.
  void start();
  void stop();

  WorkerState worker_state(std::uint32_t worker) const;
  std::size_t worker_count() const;
  /// Global BackendIds hosting at least one replica on `worker`.
  std::vector<BackendId> worker_backends(std::uint32_t worker) const;

  std::shared_ptr<const FarmState> state() const noexcept { return state_; }

 private:
  struct Worker {
    std::shared_ptr<WorkerControl> control;
    WorkerState state = WorkerState::kJoining;
    /// Shared with this worker's replicas in every FailoverBackend.
    std::shared_ptr<std::atomic<int>> health;
    std::uint32_t missed = 0;
    /// (global FailoverBackend id, worker-local backend id) per hosted backend.
    std::vector<std::pair<BackendId, BackendId>> hosted;
  };

  void set_state_locked(Worker& worker, WorkerState next);
  void mark_dead_locked(std::uint32_t index);
  void report_fault(std::uint32_t worker);  // via FarmState

  friend class FarmState;

  ShardRouter& router_;
  FarmControllerOptions options_;
  std::shared_ptr<FarmState> state_;

  mutable std::mutex mutex_;
  std::vector<Worker> workers_;
  /// equivalence key -> global id of the FailoverBackend absorbing that kind.
  std::unordered_map<std::uint64_t, BackendId> backends_by_key_;
  /// global id -> the FailoverBackend registered under it (membership writes).
  std::unordered_map<BackendId, std::shared_ptr<FailoverBackend>> failover_backends_;

  std::thread monitor_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;  ///< Guarded by mutex_.
};

}  // namespace atlas::env
