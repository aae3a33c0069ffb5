// SeedPlan unit tests: the plan is a pure function of (master seed, domain,
// iteration, replicate) — these pin its determinism and every domain's
// historical counter, so the golden_stage_test's bit-identity guarantee
// rests on a stable contract rather than on luck.

#include <gtest/gtest.h>

#include <set>

#include "env/seed_plan.hpp"

namespace ae = atlas::env;

TEST(SeedPlan, IsAPureFunctionOfItsInputs) {
  const ae::SeedPlan a(42);
  const ae::SeedPlan b(42);
  for (std::uint64_t iter = 0; iter < 30; ++iter) {
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      EXPECT_EQ(a.episode_seed(ae::SeedDomain::kStage2Query, iter, rep, 6),
                b.episode_seed(ae::SeedDomain::kStage2Query, iter, rep, 6));
    }
  }
}

TEST(SeedPlan, FreshReproducesTheHistoricalCounters) {
  // The pre-SeedPlan stages seeded as `master * prime + linear_counter`;
  // the plan must reproduce those sequences exactly (golden_stage_test pins
  // the downstream results, this pins the formula itself).
  const std::uint64_t master = 7;
  const ae::SeedPlan plan(master);

  // Stage 2: seed * 15485863 + (iter * batch + slot), batch = 3.
  const ae::SeedStream stage2 = plan.stream(ae::SeedDomain::kStage2Query, 3);
  std::uint64_t counter = 0;
  for (std::uint64_t iter = 0; iter < 4; ++iter) {
    for (std::uint64_t q = 0; q < 3; ++q) {
      EXPECT_EQ(stage2.seed(iter, q), master * 15485863ULL + counter++);
    }
  }

  // Stage 1 main loop: seed * 104729 + counter.
  EXPECT_EQ(plan.episode_seed(ae::SeedDomain::kStage1Query, 2, 1, 8),
            master * 104729ULL + 2 * 8 + 1);
  // Stage 1 reference probe historically started at seed * 13 + 1.
  EXPECT_EQ(plan.episode_seed(ae::SeedDomain::kStage1Reference, 0, 0, 1), master * 13ULL + 1);
  // Stage 3's simulator stream pre-incremented: first seed is base + 1.
  EXPECT_EQ(plan.episode_seed(ae::SeedDomain::kStage3Sim, 0, 0, 3), master * 32452843ULL + 1);
  // Online streams.
  EXPECT_EQ(plan.episode_seed(ae::SeedDomain::kStage3RealOnline, 5, 0, 1),
            master * 49979687ULL + 5);
  EXPECT_EQ(plan.episode_seed(ae::SeedDomain::kBaselineGpOnline, 9, 0, 1),
            master * 7177162611ULL + 9);

  // Every domain's salt and offset, spelled out: seed = master * salt +
  // offset + iteration * replicates_per_iteration + replicate (mod 2^64).
  const struct {
    ae::SeedDomain domain;
    std::uint64_t salt;
    std::uint64_t offset;
  } kDomains[] = {
      {ae::SeedDomain::kStage1Query, 104729ULL, 0},
      {ae::SeedDomain::kStage1Reference, 13ULL, 1},
      {ae::SeedDomain::kStage1RealCollectOnline, 7919ULL, 0},
      {ae::SeedDomain::kStage2Query, 15485863ULL, 0},
      {ae::SeedDomain::kStage3Sim, 32452843ULL, 1},
      {ae::SeedDomain::kStage3RealOnline, 49979687ULL, 0},
      {ae::SeedDomain::kBaselineGpOnline, 7177162611ULL, 0},
      {ae::SeedDomain::kBaselineDldaGrid, 83492791ULL, 0},
      {ae::SeedDomain::kBaselineDldaOnline, 15487469ULL, 0},
      {ae::SeedDomain::kBaselineVirtualEdgeOnline, 86028121ULL, 0},
  };
  // Master 0 isolates the offset, 1 adds the salt once, and a master past
  // 2^63 pins the unsigned wrap-around.
  for (const std::uint64_t m : {0ULL, 1ULL, 7ULL, (1ULL << 63) + 3}) {
    const ae::SeedPlan p(m);
    for (const auto& d : kDomains) {
      const std::uint64_t base = m * d.salt + d.offset;
      EXPECT_EQ(p.episode_seed(d.domain, 0, 0, 1), base) << "master " << m;
      EXPECT_EQ(p.episode_seed(d.domain, 3, 2, 5), base + 3 * 5 + 2) << "master " << m;
      EXPECT_EQ(p.stream(d.domain, 4).seed(6, 1), base + 6 * 4 + 1) << "master " << m;
      // A stream floors zero replicates per iteration to one.
      EXPECT_EQ(p.stream(d.domain, 0).seed(9, 0), base + 9) << "master " << m;
    }
  }
}

TEST(SeedPlan, FreshNeverRepeatsASeedWithinADomain) {
  const ae::SeedPlan plan(11);
  const ae::SeedStream seeds = plan.stream(ae::SeedDomain::kStage1Query, 5);
  std::set<std::uint64_t> seen;
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      EXPECT_TRUE(seen.insert(seeds.seed(iter, rep)).second)
          << "iter " << iter << " rep " << rep;
    }
  }
}

TEST(SeedPlan, ApplyWritesTheStreamSeed) {
  ae::EnvQuery q;
  const ae::SeedPlan plan(2);
  plan.stream(ae::SeedDomain::kStage2Query, 4).apply(q, 3, 1);
  EXPECT_EQ(q.workload.seed, plan.episode_seed(ae::SeedDomain::kStage2Query, 3, 1, 4));
}
