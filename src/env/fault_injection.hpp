#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "env/backend.hpp"
#include "rpc/transport.hpp"

namespace atlas::env {

/// What a triggered fault does to the query (backend decorator) or frame
/// (transport wrapper) it fires on.
enum class FaultKind : std::uint8_t {
  kDrop = 0,     ///< Transport: swallow the frame. Backend: lose the query (error).
  kDelay = 1,    ///< Sleep `duration_ms`, then proceed normally (brown-out).
  kError = 2,    ///< Throw immediately (worker-reported failure).
  kHang = 3,     ///< Sleep `duration_ms` (or "forever"), then fail. Wall-guard bait.
  kCorrupt = 4,  ///< Transport: flip a byte. Backend: perturb the result.
};

const char* to_string(FaultKind kind) noexcept;

/// One line of a FaultPlan: fire `kind` with `probability` per query/frame.
struct FaultRule {
  FaultKind kind = FaultKind::kError;
  double probability = 0.0;  ///< Per-decision trigger probability in [0,1].
  /// kDelay/kHang sleep length. 0 on kHang means "until release_hangs()
  /// or cancellation" (practically forever: a stuck worker, not a slow one).
  double duration_ms = 0.0;
  /// The rule arms only after this many decisions have been made on the
  /// injector (0 = armed from the start) — lets a plan model a worker that
  /// browns out mid-run instead of from the first query.
  std::uint64_t after = 0;
};

/// A seeded, declarative fault schedule. Parsed from the `--fault-plan`
/// grammar:
///
///   plan     := rule ("," rule)*
///   rule     := kind "=" probability [":" duration] ["@" after]
///   kind     := "drop" | "delay" | "error" | "hang" | "corrupt"
///   duration := number ["ms" | "s"]          (default unit: ms)
///   after    := integer                      (decisions before the rule arms)
///
/// e.g. `error=0.2,delay=0.1:50ms,hang=0.05:2s,corrupt=0.1@100`.
///
/// Whether a given decision fires is a PURE function of (plan seed, the
/// caller-supplied stream key, rule index) — no global RNG, no wall clock —
/// so two same-seed runs inject the identical fault sequence regardless of
/// thread interleaving. That determinism is what makes the chaos suite's
/// hedge/redispatch counters reproducible.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  /// Parse the grammar above. Throws std::invalid_argument on a malformed
  /// spec (unknown kind, probability outside [0,1], garbage number).
  static FaultPlan parse(std::string_view spec, std::uint64_t seed);

  /// Round-trips through parse(); used in BENCH_degradation.json metadata.
  std::string to_string() const;

  bool empty() const noexcept { return rules.empty(); }
};

/// Thrown by FaultInjectingBackend for kDrop/kError/kHang faults. A distinct
/// type so tests can tell an injected failure from a real one; production
/// callers see it as what it imitates — a backend that failed.
struct FaultInjectedError : std::runtime_error {
  explicit FaultInjectedError(const std::string& what) : std::runtime_error(what) {}
};

/// Monotone counters of faults actually fired, per kind.
struct FaultCounters {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t errors = 0;
  std::uint64_t hangs = 0;
  std::uint64_t corruptions = 0;

  std::uint64_t total() const noexcept {
    return drops + delays + errors + hangs + corruptions;
  }
};

/// Evaluates a FaultPlan, decision by decision. Shared (shared_ptr) between
/// every decorator wired to the same plan so `after` gating and the counters
/// see one global decision stream. Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// A fault that fired for one decision.
  struct Fault {
    FaultKind kind;
    double duration_ms;
  };

  /// One decision: returns the first armed rule (in plan order) whose hash
  /// draw for `stream_key` lands under its probability, or nullopt. The draw
  /// is deterministic in (plan.seed, stream_key, rule index); only the
  /// `after` gate consumes the internal decision counter.
  std::optional<Fault> decide(std::uint64_t stream_key);

  /// Interruptible sleep used for kDelay/kHang. Returns the reason it woke:
  enum class WakeReason { kElapsed, kCancelled, kReleased };
  WakeReason sleep_for(double duration_ms, const CancelToken* cancel);

  /// Wake every in-flight kHang/kDelay sleeper (they return kReleased). The
  /// loadgen wall guard calls this so an aborted load point does not leave
  /// worker threads parked inside an injected hang.
  void release_hangs();

  /// Zero the decision counter and fault counters and re-arm hangs, so the
  /// next run replays the identical schedule (two same-seed chaos runs in
  /// one process must produce identical counters).
  void reset();

  FaultCounters counters() const;

 private:
  void count(FaultKind kind);

  FaultPlan plan_;
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> hangs_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool released_ = false;  ///< guarded by sleep_mutex_
};

/// Decorator that injects faults in front of any EnvBackend. Forwards name,
/// kind and accepts_sim_params verbatim so the farm's equivalence key (kind,
/// accepts_sim_params and params_digest) cannot tell a faulty replica from a
/// healthy one — exactly the adversary the farm's health states and hedging
/// face.
///
/// Fault semantics at this layer: kError and kDrop throw FaultInjectedError
/// (a dropped query IS an error by the time the caller times out), kDelay
/// sleeps then executes normally (brown-out), kHang parks until release /
/// cancel / duration then throws, kCorrupt executes then deterministically
/// perturbs the result.
///
/// The decision stream key is the query's workload seed — the seed plan
/// gives every logical query a distinct seed, so the fault pattern is a
/// property of the WORKLOAD, independent of which thread or replica runs it,
/// and of retries (a retried query re-rolls the same draw: a
/// deterministic-fault worker stays deterministically faulty).
class FaultInjectingBackend final : public EnvBackend {
 public:
  FaultInjectingBackend(std::shared_ptr<const EnvBackend> inner,
                        std::shared_ptr<FaultInjector> injector);

  EpisodeResult execute(const EnvQuery& query) const override;
  EpisodeResult execute_cancellable(const EnvQuery& query,
                                    const CancelToken& cancel) const override;

  BackendKind kind() const noexcept override { return inner_->kind(); }
  const std::string& name() const noexcept override { return inner_->name(); }
  bool accepts_sim_params() const noexcept override { return inner_->accepts_sim_params(); }
  void fill_stats(BackendStats& stats) const override { inner_->fill_stats(stats); }
  void reset_stats() const override { inner_->reset_stats(); }

  const FaultInjector& injector() const noexcept { return *injector_; }

 private:
  EpisodeResult execute_impl(const EnvQuery& query, const CancelToken* cancel) const;

  std::shared_ptr<const EnvBackend> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

/// Fault-injecting wrapper over an rpc::Transport, for RemoteBackendOptions'
/// transport_factory seam: kDrop swallows the frame (the peer's request id
/// never resolves — upstream timeout/hedge machinery must notice), kCorrupt
/// flips one byte (poisons the stream: codec/transport error on the peer),
/// kError throws TransportError, kDelay/kHang sleep. Decisions are keyed by
/// a per-wrapper frame counter (transports see frames, not queries).
class FlakyTransport final : public rpc::Transport {
 public:
  FlakyTransport(std::unique_ptr<rpc::Transport> inner,
                 std::shared_ptr<FaultInjector> injector);

  void send(std::span<const std::uint8_t> frame) override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close() override;

 private:
  std::unique_ptr<rpc::Transport> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::atomic<std::uint64_t> frames_{0};
};

}  // namespace atlas::env
