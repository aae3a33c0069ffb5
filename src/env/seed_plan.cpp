#include "env/seed_plan.hpp"

#include <algorithm>

namespace atlas::env {

namespace {

/// Per-domain constants. `salt` is the historical prime multiplier of the
/// stage's ad-hoc counter and `offset` its starting index (the online
/// learner's sim stream pre-incremented, the calibrator's reference probe
/// started at +1); together they reproduce the pre-SeedPlan sequences
/// bit-identically. Order must match the SeedDomain enumerators.
struct DomainDesc {
  std::uint64_t salt;
  std::uint64_t offset;
};

constexpr DomainDesc kDomains[] = {
    /* kStage1Query */ {104729ULL, 0},
    /* kStage1Reference */ {13ULL, 1},
    /* kStage1RealCollectOnline */ {7919ULL, 0},
    /* kStage2Query */ {15485863ULL, 0},
    /* kStage3Sim */ {32452843ULL, 1},
    /* kStage3RealOnline */ {49979687ULL, 0},
    /* kBaselineGpOnline */ {7177162611ULL, 0},
    /* kBaselineDldaGrid */ {83492791ULL, 0},
    /* kBaselineDldaOnline */ {15487469ULL, 0},
    /* kBaselineVirtualEdgeOnline */ {86028121ULL, 0},
};

}  // namespace

std::uint64_t SeedPlan::episode_seed(SeedDomain domain, std::uint64_t iteration,
                                     std::uint64_t replicate,
                                     std::uint64_t replicates_per_iteration) const noexcept {
  return stream(domain, replicates_per_iteration).seed(iteration, replicate);
}

SeedStream SeedPlan::stream(SeedDomain domain,
                            std::uint64_t replicates_per_iteration) const noexcept {
  const DomainDesc& d = kDomains[static_cast<std::size_t>(domain)];
  return SeedStream(master_ * d.salt + d.offset,
                    std::max<std::uint64_t>(1, replicates_per_iteration));
}

}  // namespace atlas::env
