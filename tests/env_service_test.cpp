#include <gtest/gtest.h>

#include <latch>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atlas/online_learner.hpp"
#include "env/env_service.hpp"
#include "env/shard_router.hpp"

namespace ae = atlas::env;
namespace ac = atlas::core;

namespace {

ae::Workload short_workload(std::uint64_t seed) {
  ae::Workload wl;
  wl.duration_ms = 3000.0;
  wl.seed = seed;
  return wl;
}

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed,
                   ae::SliceConfig config = ae::SliceConfig{}) {
  ae::EnvQuery q;
  q.backend = backend;
  q.config = config;
  q.workload = short_workload(seed);
  return q;
}

/// A simulator behind the polymorphic EnvBackend interface under its own
/// name — stands in for a custom (say, ns-3) farm.
class NamedBackend final : public ae::EnvBackend {
 public:
  explicit NamedBackend(std::string name) : name_(std::move(name)) {}

  ae::EpisodeResult execute(const ae::EnvQuery& q) const override {
    return sim_.run(q.config, q.workload);
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  ae::Simulator sim_;
  std::string name_;
};

/// Parks every execute() until released — makes a shard look loaded so the
/// router's least-loaded placement has something to avoid.
class BlockingBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    started_.fetch_add(1, std::memory_order_relaxed);
    release_.wait(false);  // std::atomic<bool>::wait
    return {};
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOnline; }
  const std::string& name() const noexcept override { return name_; }

  int started() const noexcept { return started_.load(std::memory_order_relaxed); }
  void release() {
    release_.store(true, std::memory_order_release);
    release_.notify_all();
  }

 private:
  std::string name_ = "blocking";
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

}  // namespace

TEST(EnvService, BatchReturnsResultsInSubmissionOrder) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 4});
  const auto sim = service.add_simulator();

  // Ground truth from a directly-owned environment, one seed per slot.
  ae::Simulator direct;
  std::vector<ae::EnvQuery> batch;
  std::vector<ae::EpisodeResult> expected;
  for (std::uint64_t i = 0; i < 12; ++i) {
    ae::SliceConfig config;
    config.bandwidth_ul = 10.0 + 3.0 * static_cast<double>(i);
    batch.push_back(query(sim, 100 + i, config));
    expected.push_back(direct.run(config, short_workload(100 + i)));
  }

  const auto results = service.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].latencies_ms, expected[i].latencies_ms) << "slot " << i;
  }
}

TEST(EnvService, SubmitReturnsWorkingHandle) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  auto handle = service.submit(query(sim, 7));
  ASSERT_TRUE(handle.valid());
  EXPECT_GT(handle.id(), 0u);
  const auto result = handle.get();

  ae::Simulator direct;
  EXPECT_EQ(result.latencies_ms, direct.run(ae::SliceConfig{}, short_workload(7)).latencies_ms);
}

TEST(EnvService, OnlineBackendsMeterEveryQuery) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();

  (void)service.run(query(real, 5));
  (void)service.run(query(real, 5));
  const auto stats = service.backend_stats(real);
  EXPECT_EQ(stats.kind, ae::BackendKind::kOnline);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.episodes, stats.queries);  // metered: every query hit the network
}

TEST(EnvService, SimParamsOverrideMatchesAnEphemeralSimulator) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  auto q = query(sim, 9);
  q.sim_params = ae::oracle_calibration();
  const auto overridden = service.run(q);
  EXPECT_EQ(service.backend_stats(sim).episodes, 1u);

  // The override must match an ephemeral simulator with those parameters...
  ae::Simulator direct(ae::oracle_calibration());
  EXPECT_EQ(overridden.latencies_ms,
            direct.run(ae::SliceConfig{}, short_workload(9)).latencies_ms);
  // ...and differ from the backend's own parameters at the same seed.
  const auto defaults = service.run(query(sim, 9));
  EXPECT_NE(defaults.latencies_ms, overridden.latencies_ms);
}

TEST(EnvService, SimParamsOverrideRejectedOffSimulatorBackends) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  // Metered backends must not be faked by an offline override...
  const auto real = service.add_real_network();
  auto q = query(real, 1);
  q.sim_params = ae::SimParams::defaults();
  EXPECT_THROW((void)service.run(q), std::invalid_argument);
  // ...and non-Simulator offline backends (multi-slice) would silently lose
  // their semantics under an override, so they are rejected too.
  const auto shared = service.add_multi_slice(ae::simulator_profile(), {ae::SliceSpec{}});
  auto mq = query(shared, 1);
  mq.sim_params = ae::SimParams::defaults();
  EXPECT_THROW((void)service.run(mq), std::invalid_argument);
}

TEST(EnvService, MultiSliceBackendRejectsUnsupportedWorkloadFields) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto shared = service.add_multi_slice(ae::simulator_profile(), {ae::SliceSpec{}});
  auto q = query(shared, 1);
  q.workload.extra_users = 2;  // the shared-carrier runner cannot express this
  EXPECT_THROW((void)service.run(q), std::invalid_argument);
}

TEST(EnvService, UnknownBackendThrows) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  EXPECT_THROW((void)service.run(query(99, 1)), std::out_of_range);
  EXPECT_THROW((void)service.submit(query(99, 1)), std::out_of_range);
}

TEST(EnvService, NonFiniteQueriesRunOrThrow) {
  // A NaN off the wire must neither hang a worker nor poison the service: a
  // NaN bandwidth runs its episode, a NaN duration throws, and the service
  // keeps serving.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  ae::SliceConfig nan_bandwidth;
  nan_bandwidth.bandwidth_ul = nan;
  (void)service.run(query(sim, 1, nan_bandwidth));
  (void)service.run(query(sim, 1, nan_bandwidth));
  auto nan_duration = query(sim, 2);
  nan_duration.workload.duration_ms = nan;
  EXPECT_THROW((void)service.run(nan_duration), std::invalid_argument);
  ASSERT_NO_THROW((void)service.run(query(sim, 3)));

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.episodes, 3u);  // the NaN-duration episode threw
}

TEST(EnvService, PipebenchShimReadsNoHitsAndAMissPerOfflineQuery) {
  // Nothing is memoized, yet pipebench still reads cache_hits/cache_misses
  // and calls cache_size()/clear_cache(). An offline row reads 0 hits and one
  // miss per query, repeats included; an online row reads 0 and 0; the
  // totals and since() carry the rows.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();

  (void)service.run(query(sim, 1));
  const ae::EnvServiceStats start = service.stats();
  (void)service.run(query(sim, 1));
  (void)service.run(query(sim, 2));
  (void)service.run(query(real, 3));
  (void)service.run(query(real, 3));

  const auto offline = service.backend_stats(sim);
  EXPECT_EQ(offline.cache_hits, 0u);
  EXPECT_EQ(offline.cache_misses, offline.queries);
  EXPECT_EQ(offline.cache_misses, 3u);
  const auto online = service.backend_stats(real);
  EXPECT_EQ(online.queries, 2u);
  EXPECT_EQ(online.cache_hits, 0u);
  EXPECT_EQ(online.cache_misses, 0u);

  const ae::EnvServiceStats total = service.stats();
  EXPECT_EQ(total.cache_hits, 0u);
  EXPECT_EQ(total.cache_misses, 3u);
  const ae::EnvServiceStats delta = total.since(start);
  EXPECT_EQ(delta.cache_misses, 2u);
  EXPECT_EQ(delta.backends[sim].cache_misses, 2u);

  ae::EnvClient& client = service;
  EXPECT_EQ(client.cache_size(), 0u);
  client.clear_cache();
  EXPECT_EQ(service.backend_stats(sim).queries, 3u);
}

TEST(EnvService, MeasureQoeMatchesEpisodeQoe) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto episode = service.run(query(sim, 11));
  EXPECT_DOUBLE_EQ(service.measure_qoe(query(sim, 11), 300.0), episode.qoe(300.0));
}

TEST(EnvService, StatsSplitOfflineFromOnline) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();

  std::vector<ae::EnvQuery> batch{query(sim, 1), query(sim, 2), query(real, 3)};
  (void)service.run_batch(batch);

  const auto stats = service.stats();
  EXPECT_EQ(stats.offline_queries, 2u);
  EXPECT_EQ(stats.online_queries, 1u);
  EXPECT_EQ(stats.total_queries(), 3u);
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_EQ(stats.backends[sim].name, "simulator");
  EXPECT_EQ(stats.backends[real].name, "real");

  service.reset_stats();
  EXPECT_EQ(service.stats().total_queries(), 0u);
}

TEST(QueryHandle, InvalidHandleIsSafeNotUB) {
  ae::QueryHandle handle;  // default-constructed: no shared state
  EXPECT_FALSE(handle.valid());
  EXPECT_NO_THROW(handle.wait());                 // no-op, not UB
  EXPECT_THROW((void)handle.get(), std::logic_error);

  // A consumed handle behaves the same: get() is one-shot.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  auto live = service.submit(query(sim, 3));
  (void)live.get();
  EXPECT_FALSE(live.valid());
  EXPECT_NO_THROW(live.wait());
  EXPECT_THROW((void)live.get(), std::logic_error);
}

TEST(QueryHandle, ReadyReportsCompletionWithoutBlocking) {
  EXPECT_FALSE(ae::QueryHandle{}.ready());

  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  auto blocking = std::make_shared<BlockingBackend>();
  const auto id = service.register_backend(blocking);
  auto handle = service.submit(query(id, 1));
  while (blocking->started() < 1) std::this_thread::yield();
  EXPECT_FALSE(handle.ready());  // returns while the backend holds the episode

  blocking->release();
  handle.wait();
  EXPECT_TRUE(handle.ready());
  (void)handle.get();
  EXPECT_FALSE(handle.ready());  // consumed
}

TEST(EnvService, RacingIdenticalQueriesKeepExactAccounting) {
  // N threads hammer ONE offline query: every copy runs its episode, every
  // copy returns the same bits, and episodes == queries.
  constexpr std::size_t kThreads = 8;
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<ae::EpisodeResult> results(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = service.run(query(sim, 42));
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, kThreads);
  EXPECT_EQ(stats.episodes, stats.queries);
  for (const auto& r : results) {
    EXPECT_EQ(r.latencies_ms, results[0].latencies_ms);  // bit-identical
  }
}

TEST(EnvService, DuplicateQueriesInOneBatchKeepExactAccounting) {
  // Duplicates inside one run_batch each execute; their results and the
  // accounting must not tell.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 4});
  const auto sim = service.add_simulator();

  std::vector<ae::EnvQuery> batch;
  for (int rep = 0; rep < 8; ++rep) {
    batch.push_back(query(sim, 1));
    batch.push_back(query(sim, 2));
  }
  const auto results = service.run_batch(batch);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.episodes, stats.queries);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].latencies_ms, results[i % 2].latencies_ms) << "slot " << i;
  }
}

TEST(EnvService, NestedBatchInsideWorkerDoesNotDeadlock) {
  // A follow-up batch issued from inside a pool worker (e.g. a progress
  // callback) must not deadlock the fixed-size pool: with one worker the
  // nested parallel_for relies on the caller-runs fallback.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();

  auto outer = service.pool().submit([&] {
    std::vector<ae::EnvQuery> inner{query(sim, 70), query(sim, 71), query(sim, 72)};
    return service.run_batch(inner).size();
  });
  EXPECT_EQ(outer.get(), 3u);
  EXPECT_EQ(service.backend_stats(sim).episodes, 3u);
}

TEST(EnvService, DestructionWithAbandonedHandlesIsSafe) {
  // Submitted-but-never-harvested queries may still be queued when the
  // service dies; the pool (last member) must drain them while the registry
  // is still alive.
  for (int rep = 0; rep < 4; ++rep) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto sim = service.add_simulator();
    for (std::uint64_t i = 0; i < 8; ++i) {
      (void)service.submit(query(sim, 900 + i));  // handle dropped immediately
    }
    // ~EnvService runs here with tasks likely still in flight.
  }
  SUCCEED();
}

TEST(ShardRouter, NestedBatchInsideShardWorkerDoesNotDeadlock) {
  // A router batch issued from inside an owning shard's (single) pool worker
  // must run same-shard queries inline instead of parking the worker on its
  // own queue.
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  const auto sim_a = router.add_simulator();  // shard 0
  const auto sim_b = router.add_simulator();  // shard 1

  auto outer = router.shard(0).pool().submit([&] {
    std::vector<ae::EnvQuery> inner{query(sim_a, 80), query(sim_b, 81), query(sim_a, 82)};
    return router.run_batch(inner).size();
  });
  EXPECT_EQ(outer.get(), 3u);
  EXPECT_EQ(router.backend_stats(sim_a).episodes, 2u);
  EXPECT_EQ(router.backend_stats(sim_b).episodes, 1u);
}

TEST(EnvService, CustomBackendRegistersWithOwnNameAndKind) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto id = service.register_backend(std::make_shared<NamedBackend>("ns3-farm"));
  EXPECT_EQ(service.backend_name(id), "ns3-farm");
  EXPECT_EQ(service.backend_kind(id), ae::BackendKind::kOffline);

  (void)service.run(query(id, 5));
  const auto stats = service.backend_stats(id);
  EXPECT_EQ(stats.name, "ns3-farm");
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(stats.rpc_failures, 0u);  // fill_stats default: no rpc surface

  EXPECT_THROW((void)service.register_backend(std::shared_ptr<const ae::EnvBackend>{}),
               std::invalid_argument);
}

TEST(EnvService, SubmitCountsOutstandingQueries) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  auto blocking = std::make_shared<BlockingBackend>();
  const auto id = service.register_backend(blocking);
  EXPECT_EQ(service.outstanding_queries(), 0u);

  std::vector<ae::QueryHandle> handles;
  for (std::uint64_t i = 0; i < 3; ++i) handles.push_back(service.submit(query(id, i)));
  while (blocking->started() < 1) std::this_thread::yield();
  EXPECT_EQ(service.outstanding_queries(), 3u);  // 1 executing + 2 queued

  blocking->release();
  for (auto& h : handles) (void)h.get();
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

TEST(ShardRouter, PlacementAvoidsLoadedShards) {
  // Registration-time least-loaded placement: while shard 0 is drowning in
  // outstanding queries, newly registered backends must land on shard 1
  // (the old blind round-robin would have alternated).
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  auto blocking = std::make_shared<BlockingBackend>();
  const auto busy = router.register_backend(blocking);  // idle tie-break: shard 0
  EXPECT_EQ(&router.service_for(busy), &router.shard(0));

  std::vector<ae::QueryHandle> handles;
  for (std::uint64_t i = 0; i < 3; ++i) handles.push_back(router.submit(query(busy, i)));
  while (blocking->started() < 1) std::this_thread::yield();

  const auto sim_a = router.add_simulator(ae::SimParams::defaults(), "sim-a");
  const auto sim_b = router.add_simulator(ae::SimParams::defaults(), "sim-b");
  EXPECT_EQ(&router.service_for(sim_a), &router.shard(1));
  EXPECT_EQ(&router.service_for(sim_b), &router.shard(1))
      << "shard 0 still has outstanding queries; placement must keep avoiding it";

  blocking->release();
  for (auto& h : handles) (void)h.get();

  // With the load drained, ties fall back to backend counts: shard 0 (1
  // backend) beats shard 1 (2 backends).
  const auto sim_c = router.add_simulator(ae::SimParams::defaults(), "sim-c");
  EXPECT_EQ(&router.service_for(sim_c), &router.shard(0));
}

TEST(ShardRouter, IdlePlacementSpreadsLikeRoundRobinAndAggregatesStats) {
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  ASSERT_EQ(router.shard_count(), 2u);
  const auto sim_a = router.add_simulator(ae::SimParams::defaults(), "sim-a");  // shard 0
  const auto real = router.add_real_network("real-b");                          // shard 1
  const auto sim_c = router.add_simulator(ae::SimParams::defaults(), "sim-c");  // shard 0
  EXPECT_EQ(router.backend_count(), 3u);
  EXPECT_EQ(router.backend_name(sim_a), "sim-a");
  EXPECT_EQ(router.backend_name(real), "real-b");
  EXPECT_EQ(router.backend_kind(real), ae::BackendKind::kOnline);
  EXPECT_EQ(&router.service_for(sim_a), &router.shard(0));
  EXPECT_EQ(&router.service_for(real), &router.shard(1));
  EXPECT_EQ(&router.service_for(sim_c), &router.shard(0));

  (void)router.run(query(sim_a, 1));
  (void)router.run(query(sim_a, 1));  // runs again on shard 0
  (void)router.run(query(real, 2));
  (void)router.run(query(sim_c, 3));

  // Per-backend stats route through; the aggregate is ordered by GLOBAL id
  // and sums queries and episodes across shards.
  EXPECT_EQ(router.backend_stats(sim_a).episodes, 2u);
  const auto stats = router.stats();
  ASSERT_EQ(stats.backends.size(), 3u);
  EXPECT_EQ(stats.backends[0].name, "sim-a");
  EXPECT_EQ(stats.backends[1].name, "real-b");
  EXPECT_EQ(stats.backends[2].name, "sim-c");
  EXPECT_EQ(stats.backends[0].episodes, 2u);
  EXPECT_EQ(stats.backends[1].episodes, 1u);
  EXPECT_EQ(stats.backends[2].episodes, 1u);
  EXPECT_EQ(stats.offline_queries, 3u);
  EXPECT_EQ(stats.online_queries, 1u);

  router.reset_stats();
  EXPECT_EQ(router.stats().total_queries(), 0u);
  EXPECT_EQ(router.backend_stats(sim_a).episodes, 0u);

  EXPECT_THROW((void)router.run(query(99, 1)), std::out_of_range);
}

TEST(ShardRouter, BatchFansOutAcrossShardsInOrder) {
  ae::ShardRouter router(3, ae::EnvServiceOptions{.threads = 1});
  std::vector<ae::BackendId> sims;
  for (int i = 0; i < 3; ++i) sims.push_back(router.add_simulator());

  // Ground truth from a directly-owned simulator: all shards run the same
  // default parameters, so only the per-slot seed differentiates results.
  ae::Simulator direct;
  std::vector<ae::EnvQuery> batch;
  std::vector<ae::EpisodeResult> expected;
  for (std::uint64_t i = 0; i < 9; ++i) {
    batch.push_back(query(sims[i % 3], 500 + i));
    expected.push_back(direct.run(ae::SliceConfig{}, short_workload(500 + i)));
  }

  const auto results = router.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].latencies_ms, expected[i].latencies_ms) << "slot " << i;
  }
  // Each shard saw exactly its own slice of the batch.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(router.backend_stats(sims[i]).queries, 3u);
}

TEST(EnvService, OnlineAccountingMatchesOnlineHistoryLength) {
  // The paper's sample-efficiency bookkeeping for free: after a stage-3 run,
  // the metered backend's query count IS the number of online interactions.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator(ae::oracle_calibration());
  const auto real = service.add_real_network();

  ac::OnlineOptions opts;
  opts.iterations = 6;
  opts.inner_updates = 2;
  opts.candidates = 200;
  opts.workload.duration_ms = 3000.0;
  opts.model = ac::OnlineModel::kGpWhole;  // no offline policy needed
  ac::OnlineLearner learner(nullptr, service, sim, real, opts);
  const auto run = learner.learn();

  EXPECT_EQ(run.history.size(), 6u);
  EXPECT_EQ(service.backend_stats(real).queries, run.history.size());
  EXPECT_EQ(service.backend_stats(real).episodes, run.history.size());
  EXPECT_EQ(service.stats().online_queries, run.history.size());
}
