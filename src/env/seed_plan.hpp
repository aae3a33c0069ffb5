#pragma once

#include <cstdint>

#include "env/backend.hpp"

namespace atlas::env {

/// The seed streams Atlas draws episode randomness from. Each enumerator
/// reproduces one historical ad-hoc counter (its prime multiplier is the
/// domain salt), so the plan is bit-identical to the pre-SeedPlan stages —
/// pinned by tests/golden_stage_test.cpp.
enum class SeedDomain : std::uint8_t {
  kStage1Query,              ///< Calibrator simulator queries (offline).
  kStage1Reference,          ///< Calibrator's spec-default discrepancy probe.
  kStage1RealCollectOnline,  ///< Calibrator's online collection D_r.
  kStage2Query,              ///< Offline-trainer simulator queries.
  kStage3Sim,                ///< Online learner: residual + inner-update episodes.
  kStage3RealOnline,         ///< Online learner: metered real interactions.
  kBaselineGpOnline,         ///< GP baseline's online exploration.
  kBaselineDldaGrid,         ///< DLDA's offline grid dataset.
  kBaselineDldaOnline,       ///< DLDA's online transfer loop.
  kBaselineVirtualEdgeOnline,///< VirtualEdge's online descent.
};

class SeedPlan;

/// One opened domain of a SeedPlan: maps (iteration, replicate) -> episode
/// seed. Cheap value type — stages open one stream per query loop and call
/// `seed`/`apply` per query.
class SeedStream {
 public:
  SeedStream() = default;

  /// Episode seed for the `replicate`-th query of `iteration`.
  std::uint64_t seed(std::uint64_t iteration, std::uint64_t replicate) const noexcept {
    return base_ + iteration * reps_per_iter_ + replicate;
  }

  /// Fill `query.workload.seed`.
  void apply(EnvQuery& query, std::uint64_t iteration, std::uint64_t replicate) const noexcept {
    query.workload.seed = seed(iteration, replicate);
  }

 private:
  friend class SeedPlan;
  SeedStream(std::uint64_t base, std::uint64_t replicates_per_iteration) noexcept
      : base_(base), reps_per_iter_(replicates_per_iteration) {}

  std::uint64_t base_ = 0;           ///< master * domain salt + domain offset.
  std::uint64_t reps_per_iter_ = 1;  ///< Seeds one iteration consumes.
};

/// Deterministic seed planning across BO iterations: maps (stage domain,
/// iteration, replicate) -> episode seed.
///
///   const SeedStream seeds =
///       SeedPlan(options.seed).stream(SeedDomain::kStage2Query, batch);
///   ...
///   seeds.apply(query, iter, q);   // sets workload.seed
///
/// Each domain's seeds never repeat: they reproduce the historical
/// `master * prime + counter` sequences bit-identically (golden_stage_test
/// pins this). Everything is a pure function of (master seed, domain,
/// iteration, replicate) — no internal counters, safe to share across
/// threads, reconstructible anywhere.
class SeedPlan {
 public:
  explicit SeedPlan(std::uint64_t master_seed) noexcept : master_(master_seed) {}

  /// The full map. `replicates_per_iteration` is how many episode seeds one
  /// iteration consumes in this domain (it linearizes the sequence).
  std::uint64_t episode_seed(SeedDomain domain, std::uint64_t iteration,
                             std::uint64_t replicate,
                             std::uint64_t replicates_per_iteration) const noexcept;

  /// Open a stream for one query loop.
  SeedStream stream(SeedDomain domain, std::uint64_t replicates_per_iteration) const noexcept;

 private:
  std::uint64_t master_ = 0;
};

}  // namespace atlas::env
