// Hedged dispatch under deterministic pressure, the serving stack's one
// overload mechanism. Companion to fault_injection_test.cpp in the `chaos`
// ctest label; every scenario here is engineered to be schedule-independent
// (one-sided races), and the reproducibility test runs its scenario twice and
// requires IDENTICAL counters — that is the chaos harness's acceptance bar.
// Replica health under faults is farm_controller_test.cpp's subject.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/fault_injection.hpp"

namespace ae = atlas::env;

namespace {

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 500.0;
  q.workload.seed = seed;
  return q;
}

/// Replica fake whose result identifies which replica answered.
class TaggedBackend final : public ae::EnvBackend {
 public:
  explicit TaggedBackend(double tag) : tag_(tag) {}

  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    ae::EpisodeResult result;
    result.latencies_ms = {tag_};
    result.frames_completed = static_cast<std::size_t>(tag_);
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_ = "tagged";
  double tag_;
};

/// Replica fake that never answers on its own: execute_cancellable polls the
/// token and throws EpisodeCancelled once the hedge winner cancels it. The
/// bounded fallback keeps a broken test from parking forever.
class ParkedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery& q) const override {
    ae::CancelToken never{false};
    return execute_cancellable(q, never);
  }
  ae::EpisodeResult execute_cancellable(const ae::EnvQuery&,
                                        const ae::CancelToken& cancel) const override {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cancel.load(std::memory_order_acquire)) throw ae::EpisodeCancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};  // test failure path: the hedge never fired
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_ = "parked";
};

std::shared_ptr<std::atomic<int>> serving_health() {
  return std::make_shared<std::atomic<int>>(static_cast<int>(ae::WorkerState::kServing));
}

ae::WorkerBackendInfo sim_descriptor() {
  ae::WorkerBackendInfo info;
  info.name = "sim-pool";
  info.kind = ae::BackendKind::kOffline;
  return info;
}

}  // namespace

// ---- hedged dispatch -------------------------------------------------------

TEST(OverloadHedging, SlowPrimaryIsHedgedAndTheLoserCancelled) {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 5.0;  // no RTT samples yet: hedge after 5 ms
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge);
  backend.add_replica(std::make_shared<ParkedBackend>(), 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), 5.0);

  // Round-robin starts at replica 0 (the parked one). It outlives the hedge
  // delay, the secondary answers, the primary is cancelled — and a
  // cancellation is NOT a fault: nothing is redispatched.
  const auto result = backend.execute(query(0, 11));
  ASSERT_EQ(result.latencies_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(result.latencies_ms[0], 2.0);  // the secondary's tag

  EXPECT_EQ(farm->hedges.load(), 1u);
  EXPECT_EQ(farm->hedge_wins.load(), 1u);
  EXPECT_EQ(farm->episodes_redispatched.load(), 0u);
}

namespace {

/// Replica fake with a caller-scripted RTT distribution: hedge_delay_ms()
/// learns its quantile from fill_stats, so the test controls exactly what
/// the hedge policy believes the farm's RTT regime is.
class ScriptedRttBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override { return {}; }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  void fill_stats(ae::BackendStats& stats) const override { stats.rpc_rtt_ns.merge(rtt_); }

  void record_rtt_ms(double ms, std::uint64_t samples) {
    rtt_.record(static_cast<std::uint64_t>(ms * 1e6), samples);
  }

 private:
  std::string name_ = "scripted-rtt";
  atlas::telemetry::HistogramData rtt_;
};

}  // namespace

TEST(OverloadHedging, IdleFarmRefreshesAStaleHedgeDelayByWallClock) {
  // Regression: the hedge delay cache refreshed only every 64th CALL, so a
  // farm that idled across an RTT regime change kept hedging (or not) on the
  // pre-idle quantile for up to 63 post-idle episodes — exactly when the
  // regime is most likely to have shifted. Wall-clock staleness is now the
  // primary trigger: the first call after an idle period must recompute.
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 5.0;
  hedge.min_samples = 4;
  hedge.refresh_interval_ms = 20.0;  // "idle" is cheap to reach in a test
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge);
  const auto replica = std::make_shared<ScriptedRttBackend>();
  backend.add_replica(replica, 0, serving_health());

  // Call 0 (call-count trigger): no RTT samples yet -> the fallback delay.
  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), 5.0);

  // The farm observes genuinely slow episodes, then goes idle.
  replica->record_rtt_ms(80.0, 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  // First post-idle call: 1 % 64 != 0, so the old call-count-only cadence
  // would have served the stale 5 ms fallback. The wall-clock trigger must
  // recompute from the recorded distribution instead.
  const double refreshed = backend.hedge_delay_ms();
  EXPECT_GT(refreshed, 50.0) << "first post-idle hedge delay must reflect the slow RTTs";
  EXPECT_LE(refreshed, 1000.0);  // the learned delay's upper clamp

  // Within the staleness window the cache serves without rescanning: the
  // regime shifts again but the interval has not elapsed and the call count
  // has not rolled over, so the cached value holds (cheap steady-state path).
  replica->record_rtt_ms(1.0, 1024);
  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), refreshed);
}

TEST(OverloadHedging, FastPrimaryNeverHedges) {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 200.0;  // far longer than an instant reply
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge);
  backend.add_replica(std::make_shared<TaggedBackend>(1.0), 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_EQ(backend.execute(query(0, seed)).latencies_ms.size(), 1u);
  }
  EXPECT_EQ(farm->hedges.load(), 0u);
  EXPECT_EQ(farm->hedge_wins.load(), 0u);
}

// ---- golden guard: idle features change nothing ----------------------------

namespace {

/// FNV-1a over the result's raw f64/u64 bit patterns (same construction as
/// the golden_episode suite): a single-ULP drift anywhere flips the hash.
std::uint64_t hash_result(const ae::EpisodeResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto add_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  add_u64(r.frames_completed);
  add_u64(static_cast<std::uint64_t>(r.ul_tb_total));
  add_u64(static_cast<std::uint64_t>(r.ul_tb_err));
  add_u64(static_cast<std::uint64_t>(r.dl_tb_total));
  add_u64(static_cast<std::uint64_t>(r.dl_tb_err));
  for (const double latency : r.latencies_ms) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &latency, sizeof(bits));
    add_u64(bits);
  }
  return h;
}

std::vector<ae::EnvQuery> golden_queries(ae::BackendId backend) {
  std::vector<ae::EnvQuery> queries;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ae::EnvQuery q = query(backend, seed);
    q.config.bandwidth_ul = 5.0 + 4.0 * static_cast<double>(seed);
    q.config.cpu_ratio = 0.1 * static_cast<double>(seed % 9);
    queries.push_back(q);
  }
  return queries;
}

}  // namespace

TEST(OverloadGolden, IdleFeaturesLeaveEpisodeResultsBitIdentical) {
  // Hedging enabled must be invisible when nothing triggers: every result
  // bit-identical to a plain service's. This is the guard that lets
  // deployments enable it without re-validating their science.

  // Baseline: a bare service, no hedging.
  std::vector<std::uint64_t> baseline;
  {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto sim = service.add_simulator();
    for (const auto& q : golden_queries(sim)) baseline.push_back(hash_result(service.run(q)));
  }

  // Hedging over two healthy same-params replicas: episodes are
  // deterministic per seed, so WHICH replica answers cannot matter, and a
  // hedge delay far past a local episode's runtime means none ever fires.
  {
    const auto farm = std::make_shared<ae::FarmState>();
    ae::HedgePolicy hedge;
    hedge.enabled = true;
    hedge.fallback_delay_ms = 1000.0;
    ae::FailoverBackend failover(sim_descriptor(), farm, hedge);
    const auto make_sim = [] {
      return std::make_shared<ae::LocalBackend>(std::make_shared<ae::Simulator>(), "sim-0",
                                                ae::BackendKind::kOffline);
    };
    failover.add_replica(make_sim(), 0, serving_health());
    failover.add_replica(make_sim(), 1, serving_health());

    std::size_t i = 0;
    for (const auto& q : golden_queries(0)) {
      EXPECT_EQ(hash_result(failover.execute(q)), baseline[i]) << "query " << i;
      ++i;
    }
    EXPECT_EQ(farm->hedges.load(), 0u);
  }
}

// ---- same-seed reproducibility (the chaos acceptance bar) ------------------

TEST(ChaosReproducibility, FaultedServiceRunsProduceIdenticalOutcomes) {
  // End to end: an EnvService fronting a fault-injected simulator. Which
  // queries fail is a pure function of (plan seed, workload seed), so two
  // fresh same-seed services agree on the exact failure set and counters —
  // across different thread pools and interleavings.
  const auto run_once = [](std::set<std::uint64_t>& failed_seeds) {
    const auto injector =
        std::make_shared<ae::FaultInjector>(ae::FaultPlan::parse("error=0.3", 77));
    ae::EnvServiceOptions options;
    options.threads = 4;
    ae::EnvService service(options);
    const auto faulty = service.register_backend(std::make_shared<ae::FaultInjectingBackend>(
        std::make_shared<ae::LocalBackend>(std::make_shared<ae::Simulator>(), "sim-0",
                                           ae::BackendKind::kOffline),
        injector));
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      try {
        (void)service.run(query(faulty, seed));
      } catch (const ae::FaultInjectedError&) {
        failed_seeds.insert(seed);
      }
    }
    return injector->counters().errors;
  };

  std::set<std::uint64_t> first_failed;
  std::set<std::uint64_t> second_failed;
  const auto first_errors = run_once(first_failed);
  const auto second_errors = run_once(second_failed);

  EXPECT_FALSE(first_failed.empty());             // the plan actually bites
  EXPECT_LT(first_failed.size(), 60u);            // ...but not everything
  EXPECT_EQ(first_failed, second_failed);         // identical failure SET
  EXPECT_EQ(first_errors, second_errors);         // identical injector counters
  EXPECT_EQ(first_errors, first_failed.size());
}
