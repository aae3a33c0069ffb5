#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "env/backend.hpp"

namespace atlas::env {

/// What a triggered fault does to the query it fires on. Every fault ends on
/// its own: a delay or a hang lasts at most an hour.
enum class FaultKind : std::uint8_t {
  kDelay = 0,  ///< Sleep `duration_ms`, then proceed normally (brown-out).
  kError = 1,  ///< Throw immediately (worker-reported failure).
  kHang = 2,   ///< Sleep `duration_ms`, then fail (a stuck worker).
};

const char* to_string(FaultKind kind) noexcept;

/// One line of a FaultPlan: fire `kind` with `probability` per query.
struct FaultRule {
  FaultKind kind = FaultKind::kError;
  double probability = 0.0;  ///< Per-decision trigger probability in [0,1].
  /// kDelay/kHang sleep length, in (0, 1 h]; 0 on kError.
  double duration_ms = 0.0;
};

/// A seeded, declarative fault schedule. Parsed from the `--fault-plan`
/// grammar:
///
///   plan     := rule ("," rule)*
///   rule     := kind "=" probability [":" duration]
///   kind     := "delay" | "error" | "hang"
///   duration := number ["ms" | "s"]          (default unit: ms)
///
/// A delay or hang needs a duration in (0, 1 h]; an error takes none.
/// e.g. `error=0.2,delay=0.1:50ms,hang=0.05:2s`.
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
  /// spec (unknown kind, probability outside [0,1] or NaN, garbage number,
  /// a missing, non-finite, non-positive or over-an-hour delay/hang
  /// duration, or a duration on an error).
  static FaultPlan parse(std::string_view spec, std::uint64_t seed);

  /// Round-trips through parse(); used in BENCH_degradation.json metadata.
  std::string to_string() const;

  bool empty() const noexcept { return rules.empty(); }
};

/// Thrown by FaultInjectingBackend for kError/kHang faults. A distinct type
/// so tests can tell an injected failure from a real one; production callers
/// see it as what it imitates — a backend that failed.
struct FaultInjectedError : std::runtime_error {
  explicit FaultInjectedError(const std::string& what) : std::runtime_error(what) {}
};

/// Monotone counters of faults actually fired, per kind.
struct FaultCounters {
  std::uint64_t delays = 0;
  std::uint64_t errors = 0;
  std::uint64_t hangs = 0;

  std::uint64_t total() const noexcept { return delays + errors + hangs; }
};

/// Evaluates a FaultPlan, decision by decision. Shared (shared_ptr) between
/// every decorator wired to the same plan so the counters total across them.
/// Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// One decision: returns the first rule (in plan order) whose hash draw
  /// for `stream_key` lands under its probability, or nullopt. The draw is
  /// deterministic in (plan.seed, stream_key, rule index).
  std::optional<FaultRule> decide(std::uint64_t stream_key);

  FaultCounters counters() const;

 private:
  FaultPlan plan_;
  /// Faults fired, indexed by FaultKind.
  std::array<std::atomic<std::uint64_t>, 3> fired_{};
};

/// Decorator that injects faults in front of any EnvBackend. Forwards name,
/// kind and accepts_sim_params verbatim so the farm's equivalence key (kind,
/// accepts_sim_params and params_digest) cannot tell a faulty replica from a
/// healthy one — exactly the adversary the farm's health states and hedging
/// face.
///
/// Fault semantics: kError throws FaultInjectedError, kDelay sleeps then
/// executes normally (brown-out), kHang sleeps its duration then throws. A
/// cancelled sleep (a hedge loser) throws EpisodeCancelled.
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

 private:
  EpisodeResult execute_impl(const EnvQuery& query, const CancelToken* cancel) const;

  std::shared_ptr<const EnvBackend> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace atlas::env
