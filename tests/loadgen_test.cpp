// Open-loop load generator: plan determinism (fixed seed => byte-identical
// query mix), mix fractions and Poisson arrivals, and a small in-process
// run_load_point metering one episode per query end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "env/env_service.hpp"
#include "env/fault_injection.hpp"
#include "env/loadgen.hpp"
#include "rpc/codec.hpp"

namespace env = atlas::env;

namespace {

env::LoadPlanOptions small_options() {
  env::LoadPlanOptions options;
  options.qps = 500.0;
  options.duration_s = 1.0;
  options.seed = 11;
  options.episode_ms = 2.0;
  options.offline_backend = 0;
  options.online_backend = 1;
  options.has_online = true;
  return options;
}

}  // namespace

TEST(LoadPlan, DeterministicForFixedSeed) {
  const env::LoadPlan a = env::build_load_plan(small_options());
  const env::LoadPlan b = env::build_load_plan(small_options());
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 100u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].arrival_s, b.events[i].arrival_s);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    // EnvQuery has no operator==; the wire codec is bit-exact, so identical
    // encodings mean identical queries down to the last double.
    EXPECT_EQ(atlas::rpc::encode_query(0, a.events[i].query),
              atlas::rpc::encode_query(0, b.events[i].query));
  }
}

TEST(LoadPlan, SeedChangesThePlan) {
  env::LoadPlanOptions options = small_options();
  const env::LoadPlan a = env::build_load_plan(options);
  options.seed += 1;
  const env::LoadPlan b = env::build_load_plan(options);
  bool any_difference = a.events.size() != b.events.size();
  for (std::size_t i = 0; !any_difference && i < a.events.size(); ++i) {
    any_difference = atlas::rpc::encode_query(0, a.events[i].query) !=
                     atlas::rpc::encode_query(0, b.events[i].query);
  }
  EXPECT_TRUE(any_difference);
}

TEST(LoadPlan, MixFractionsAndArrivalsMatchTheOptions) {
  env::LoadPlanOptions options = small_options();
  options.qps = 2000.0;
  options.duration_s = 10.0;  // ~20k events: binomial noise ~0.4% per share
  const env::LoadPlan plan = env::build_load_plan(options);
  const auto n = static_cast<double>(plan.events.size());
  ASSERT_GT(n, 15000.0);
  EXPECT_NEAR(static_cast<double>(plan.online) / n, options.mix.online, 0.02);
  EXPECT_NEAR(static_cast<double>(plan.traces) / n, options.mix.trace, 0.02);
  EXPECT_EQ(plan.online + plan.traces + plan.fresh, plan.events.size());

  // Poisson arrivals: ~qps * duration events, sorted, mean gap ~1/qps.
  EXPECT_NEAR(n, options.qps * options.duration_s, 0.05 * options.qps * options.duration_s);
  double previous = 0.0;
  for (const env::LoadEvent& event : plan.events) {
    EXPECT_GE(event.arrival_s, previous);
    EXPECT_LT(event.arrival_s, options.duration_s);
    previous = event.arrival_s;
  }

  // Per-kind invariants; no two events share a seed, so none repeats an
  // episode.
  std::set<std::uint64_t> seeds;
  for (const env::LoadEvent& event : plan.events) {
    EXPECT_TRUE(seeds.insert(event.query.workload.seed).second);
    switch (event.kind) {
      case env::LoadKind::kOnline:
        EXPECT_EQ(event.query.backend, options.online_backend);
        break;
      case env::LoadKind::kTrace:
        EXPECT_TRUE(event.query.workload.collect_traces);
        break;
      case env::LoadKind::kFresh:
        EXPECT_EQ(event.query.backend, options.offline_backend);
        EXPECT_FALSE(event.query.workload.collect_traces);
        break;
    }
  }
}

TEST(LoadPlan, OnlineShareFallsBackToFreshWithoutAnOnlineBackend) {
  env::LoadPlanOptions options = small_options();
  options.has_online = false;
  const env::LoadPlan plan = env::build_load_plan(options);
  EXPECT_EQ(plan.online, 0u);
  for (const env::LoadEvent& event : plan.events) {
    EXPECT_EQ(event.query.backend, options.offline_backend);
  }
}

TEST(LoadPlan, ExtraUsersRideOnEveryScheduledEpisode) {
  env::LoadPlanOptions options = small_options();
  options.extra_users = 16;
  const env::LoadPlan plan = env::build_load_plan(options);
  ASSERT_FALSE(plan.events.empty());
  for (const env::LoadEvent& event : plan.events) {
    EXPECT_EQ(event.query.workload.extra_users, 16);
  }
}

TEST(LoadPlan, RejectsBadOptions) {
  env::LoadPlanOptions options = small_options();
  options.qps = 0.0;
  EXPECT_THROW(env::build_load_plan(options), std::invalid_argument);
  options = small_options();
  options.mix.online = 0.8;
  options.mix.trace = 0.3;  // sums past 1
  EXPECT_THROW(env::build_load_plan(options), std::invalid_argument);
  options = small_options();
  options.mix.trace = -0.1;
  EXPECT_THROW(env::build_load_plan(options), std::invalid_argument);
}

TEST(LoadPoint, RunsAPlanAgainstAServiceAndMetersEpisodes) {
  env::EnvServiceOptions service_options;
  service_options.threads = 2;
  env::EnvService service(service_options);
  const env::BackendId sim = service.add_simulator();
  const env::BackendId real = service.add_real_network();

  env::LoadPlanOptions plan_options = small_options();
  plan_options.qps = 400.0;
  plan_options.duration_s = 0.5;
  plan_options.offline_backend = sim;
  plan_options.online_backend = real;
  const env::LoadPlan plan = env::build_load_plan(plan_options);
  ASSERT_GT(plan.events.size(), 50u);

  env::LoadRunOptions run_options;
  run_options.workers = 8;
  const env::LoadPointResult result = env::run_load_point(service, plan, run_options);

  EXPECT_EQ(result.scheduled, plan.events.size());
  EXPECT_EQ(result.completed + result.failed, result.scheduled);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.latency_ns.count(), result.completed);
  EXPECT_GT(result.achieved_qps, 0.0);
  EXPECT_GT(result.wall_s, 0.0);

  // Every query ran its own episode, offline and online alike.
  EXPECT_EQ(result.stats.total_queries(),
            static_cast<std::uint64_t>(result.completed));
  EXPECT_EQ(result.stats.online_queries, static_cast<std::uint64_t>(plan.online));
  std::uint64_t episodes = 0;
  for (const env::BackendStats& b : result.stats.backends) {
    EXPECT_EQ(b.episodes, b.queries) << b.name;
    episodes += b.episodes;
  }
  EXPECT_EQ(episodes, static_cast<std::uint64_t>(result.completed));
  // The service's own telemetry saw every query too.
  EXPECT_EQ(result.stats.query_latency_ns.count(),
            static_cast<std::uint64_t>(result.completed));
}

TEST(LoadPoint, WallGuardAbortsAHungPointAndAccountsEveryEvent) {
  // Every query hangs "forever" (duration 0). Without the wall guard this
  // point would park its workers for an hour; with it, the watchdog fires at
  // 0.3 s, on_abort releases the hangs (they fail fast), still-queued and
  // undispatched events are failed wholesale, and the run returns promptly.
  const auto injector = std::make_shared<env::FaultInjector>(env::FaultPlan::parse("hang=1", 3));
  env::EnvServiceOptions service_options;
  service_options.threads = 2;
  env::EnvService service(service_options);
  const env::BackendId faulty = service.register_backend(
      std::make_shared<env::FaultInjectingBackend>(
          std::make_shared<env::LocalBackend>(std::make_shared<env::Simulator>(), "sim-0",
                                              env::BackendKind::kOffline),
          injector));

  env::LoadPlanOptions plan_options = small_options();
  plan_options.qps = 100.0;
  plan_options.duration_s = 2.0;
  plan_options.offline_backend = faulty;
  plan_options.online_backend = faulty;
  const env::LoadPlan plan = env::build_load_plan(plan_options);

  env::LoadRunOptions run_options;
  run_options.workers = 4;
  run_options.wall_limit_s = 0.3;
  run_options.on_abort = [&] { injector->release_hangs(); };

  const auto start = std::chrono::steady_clock::now();
  const env::LoadPointResult result = env::run_load_point(service, plan, run_options);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.completed, 0u);  // every dispatched query hung, then failed
  EXPECT_EQ(result.completed + result.failed, result.scheduled);
  EXPECT_GT(result.failed, 0u);
  // The guard bounded the point: well under the 2 s plan horizon (generous
  // slack for join latency on a loaded CI box).
  EXPECT_LT(elapsed_s, 1.5);
}
