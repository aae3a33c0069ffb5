// Speculative episode prefetching (env/speculation.hpp): exact accounting of
// the launched == hits + cancelled + wasted invariant, the
// cancellation-never-memoizes guarantee, single-counting of shed speculative
// queries, the retry of a committed query coalesced onto a shed speculation,
// and the budget rule against outstanding work. The bit-identity
// half of the contract lives in golden_stage_test.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/shard_router.hpp"
#include "env/speculation.hpp"

namespace ae = atlas::env;

namespace {

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 500.0;
  q.workload.seed = seed;
  return q;
}

/// Offline backend that parks every execute() until released (same knob as
/// overload_test's): holds the pool busy so queued speculations stay queued.
class GatedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    started_.fetch_add(1, std::memory_order_relaxed);
    release_.wait(false);
    return {};
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

  int started() const noexcept { return started_.load(std::memory_order_relaxed); }
  void release() {
    release_.store(true, std::memory_order_release);
    release_.notify_all();
  }

 private:
  std::string name_ = "gated";
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

/// Offline backend whose first execute() parks until released and then
/// answers with a typed kShedded, as a remote worker does when it sheds a
/// speculative query at its soft watermark. Every later call runs an episode.
class ShedFirstBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    ae::EpisodeResult result;
    if (calls_.fetch_add(1, std::memory_order_relaxed) == 0) {
      release_.wait(false);
      result.rejected = ae::RejectReason::kShedded;
    } else {
      result.latencies_ms = {1.0};
    }
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

  int calls() const noexcept { return calls_.load(std::memory_order_relaxed); }
  void release() {
    release_.store(true, std::memory_order_release);
    release_.notify_all();
  }

 private:
  std::string name_ = "shed-first";
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<bool> release_{false};
};

}  // namespace

TEST(Speculation, CommittedSpeculationIsAHitAndTheEpisodeRunsOnce) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  ae::SpeculationPlanner prefetch(service, ae::SpeculationOptions{.top_k = 2});

  // Mid-"scan": the eventual winner is speculated; the commit then submits
  // the identical query, which coalesces onto (or is memoized by) the
  // speculative episode — one execution total.
  EXPECT_TRUE(prefetch.speculate(query(sim, 7)));
  EXPECT_FALSE(prefetch.speculate(query(sim, 7))) << "identical episode dedups";
  prefetch.note_commit(query(sim, 7));
  const auto committed = service.run(query(sim, 7));
  EXPECT_FALSE(committed.is_rejected());
  prefetch.close_iteration();

  const auto view = prefetch.view();
  EXPECT_EQ(view.launched, 1u);
  EXPECT_EQ(view.hits, 1u);
  EXPECT_EQ(view.cancelled, 0u);
  EXPECT_EQ(view.wasted, 0u);
  EXPECT_DOUBLE_EQ(view.hit_rate(), 1.0);

  // Service accounting: two queries (speculative + committed), ONE episode.
  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // The planner's counter block rides stats() like the farm's does.
  const auto service_stats = service.stats();
  EXPECT_TRUE(service_stats.speculation.active);
  EXPECT_EQ(service_stats.speculation.launched, 1u);
  EXPECT_EQ(service_stats.speculation.hits, 1u);
}

TEST(Speculation, UncommittedCompletedSpeculationIsWastedButWarmsTheCache) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  ae::SpeculationPlanner prefetch(service, ae::SpeculationOptions{.top_k = 2});

  ASSERT_TRUE(prefetch.speculate(query(sim, 11)));
  // Let the misprediction actually execute before the iteration closes.
  while (service.backend_stats(sim).episodes < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  prefetch.close_iteration();

  const auto view = prefetch.view();
  EXPECT_EQ(view.launched, 1u);
  EXPECT_EQ(view.wasted, 1u);
  EXPECT_EQ(view.hits + view.cancelled, 0u);

  // "Wasted" still bought something: the entry is memoized, so a later
  // revisit of the same episode is a pure cache hit.
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_FALSE(service.run(query(sim, 11)).is_rejected());
  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.episodes, 1u) << "the revisit must not recompute";
}

TEST(Speculation, CancelledSpeculationsNeverMemoizeAndCountOnce) {
  // One pool thread held by a gated blocker: the speculation stays QUEUED
  // until after close_iteration() flips its token, so admission sees the
  // cancel and resolves it as a typed kCancelled rejection.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto gated_backend = std::make_shared<GatedBackend>();
  const auto gate = service.register_backend(gated_backend);
  const auto sim = service.add_simulator();
  ae::SpeculationPlanner prefetch(service, ae::SpeculationOptions{.top_k = 2});

  auto blocker = service.submit(query(gate, 1));
  while (gated_backend->started() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(prefetch.speculate(query(sim, 21)));

  // close_iteration() flips the token first, then blocks harvesting the
  // future — release the gate from the side so the queued task can run its
  // admission check and observe the cancel.
  std::thread closer([&] { prefetch.close_iteration(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gated_backend->release();
  closer.join();
  (void)blocker.get();

  const auto view = prefetch.view();
  EXPECT_EQ(view.launched, 1u);
  EXPECT_EQ(view.cancelled, 1u);
  EXPECT_EQ(view.hits + view.wasted, 0u);

  // The cancelled speculation never produced an episode and never memoized:
  // counted exactly once (as cancelled), and a later identical query is a
  // genuine miss that executes for real.
  auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.episodes, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.rejected(), stats.queries);

  EXPECT_FALSE(service.run(query(sim, 21)).is_rejected());
  stats = service.backend_stats(sim);
  EXPECT_EQ(stats.cache_misses, 1u) << "a cancelled speculation must not fake a memo entry";
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(service.stats().cancelled_total, 1u);
}

TEST(Speculation, ShedSpeculativeQueryIsCountedExactlyOnce) {
  // Watermark 1: a lone speculative query sheds on its own footprint. The
  // planner buckets it as cancelled (no usable episode), the service as a
  // shed — one rejection, one name each, never both shed AND cancelled.
  ae::EnvServiceOptions options;
  options.threads = 2;
  options.shed_watermark = 1;
  ae::EnvService service(options);
  const auto sim = service.add_simulator();
  ae::SpeculationPlanner prefetch(service, ae::SpeculationOptions{.top_k = 2});

  ASSERT_TRUE(prefetch.speculate(query(sim, 31)));
  // Outstanding counts from submission, so the lone speculation sheds on its
  // own footprint — wait for admission so close_iteration() can't win the
  // race and turn the shed into a token cancellation.
  while (service.backend_stats(sim).shedded < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  prefetch.close_iteration();

  const auto view = prefetch.view();
  EXPECT_EQ(view.launched, 1u);
  EXPECT_EQ(view.cancelled, 1u);
  EXPECT_EQ(view.hits + view.wasted, 0u);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.shedded, 1u);
  EXPECT_EQ(stats.cancelled, 0u) << "shed at admission, not token-cancelled";
  EXPECT_EQ(stats.rejected(), 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.rejected(), stats.queries);
  const auto totals = service.stats();
  EXPECT_EQ(totals.shed_total, 1u);
  EXPECT_EQ(totals.cancelled_total, 0u);
}

TEST(Speculation, CommittedQueryCoalescedOntoAShedSpeculationStillRuns) {
  // The backend sheds the speculative leader. The committed query that
  // coalesced onto that flight was never shed itself: it retries the lookup
  // and runs its episode.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto backend = std::make_shared<ShedFirstBackend>();
  const auto id = service.register_backend(backend);

  ae::EnvQuery speculative = query(id, 41);
  speculative.priority = ae::QueryPriority::kSpeculative;
  auto leader = service.submit(speculative);
  while (backend->calls() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto waiter = service.submit(query(id, 41));
  // A waiter counts its provisional hit before it blocks on the flight.
  while (service.backend_stats(id).cache_hits < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  backend->release();

  EXPECT_EQ(leader.get().rejected, ae::RejectReason::kShedded);
  const auto committed = waiter.get();
  EXPECT_FALSE(committed.is_rejected());
  EXPECT_EQ(committed.latencies_ms.size(), 1u);

  const auto stats = service.backend_stats(id);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(stats.cache_hits, 0u) << "the waiter's provisional hit is undone";
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(service.cache_size(), 1u) << "only the executed episode memoizes";
}

TEST(Speculation, BudgetRespectsDepthOutstandingWorkAndWatermark) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto gated_backend = std::make_shared<GatedBackend>();
  const auto gate = service.register_backend(gated_backend);
  const auto sim = service.add_simulator();

  // Budget = prefetch depth when the service is idle.
  ae::SpeculationOptions options;
  options.top_k = 3;
  options.max_outstanding = 4;
  ae::SpeculationPlanner prefetch(service, options);
  EXPECT_EQ(prefetch.budget(), 3u);

  // Committed work in flight eats the idle headroom: 4 - 3 outstanding = 1.
  auto h1 = service.submit(query(gate, 1));
  auto h2 = service.submit(query(gate, 2));
  auto h3 = service.submit(query(gate, 3));
  while (service.outstanding_queries() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(prefetch.budget(), 1u);

  // A soft shed watermark caps harder: a speculation that would be shed on
  // arrival is never worth launching.
  ae::SpeculationOptions capped = options;
  capped.shed_watermark = 3;
  ae::SpeculationPlanner throttled(service, capped);
  EXPECT_EQ(throttled.budget(), 0u);
  EXPECT_FALSE(throttled.speculate(query(sim, 41)));
  EXPECT_EQ(throttled.view().launched, 0u);

  gated_backend->release();
  (void)h1.get();
  (void)h2.get();
  (void)h3.get();
}

TEST(Speculation, InvariantHoldsUnderConcurrentIterations) {
  // Two planner loops (one per shard-routed simulator) churn concurrently:
  // speculate a few keys per iteration, commit one, close — with foreground
  // load racing on the same service. Every launch must settle into exactly
  // one bucket: launched == hits + cancelled + wasted on each planner, and
  // the service's own hit/miss/rejection accounting stays exact.
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 2});
  const auto sim_a = router.add_simulator(ae::SimParams::defaults(), "sim-a");
  const auto sim_b = router.add_simulator(ae::SimParams::defaults(), "sim-b");

  constexpr std::size_t kIterations = 25;
  auto loop = [&](ae::BackendId sim, std::uint64_t base, ae::SpeculationPlanner& prefetch) {
    for (std::size_t iter = 0; iter < kIterations; ++iter) {
      const std::uint64_t seed = base + iter;
      (void)prefetch.speculate(query(sim, seed));
      (void)prefetch.speculate(query(sim, seed + 1000));  // usually mispredicted
      prefetch.note_commit(query(sim, seed));
      (void)router.run(query(sim, seed));  // the commit
      prefetch.close_iteration();
    }
  };

  ae::SpeculationPlanner prefetch_a(router, ae::SpeculationOptions{.top_k = 4});
  ae::SpeculationPlanner prefetch_b(router, ae::SpeculationOptions{.top_k = 4});
  std::thread worker_a([&] { loop(sim_a, 100, prefetch_a); });
  std::thread worker_b([&] { loop(sim_b, 5000, prefetch_b); });
  // Foreground noise: unrelated queries racing the speculative traffic.
  std::thread noise([&] {
    for (std::uint64_t seed = 0; seed < 50; ++seed) (void)router.run(query(sim_a, 90000 + seed));
  });
  worker_a.join();
  worker_b.join();
  noise.join();

  for (const auto* prefetch : {&prefetch_a, &prefetch_b}) {
    const auto view = prefetch->view();
    EXPECT_EQ(view.launched, view.hits + view.cancelled + view.wasted)
        << "every launch settles into exactly one bucket";
    EXPECT_GT(view.launched, 0u);
    EXPECT_EQ(view.hits, kIterations) << "every committed key was speculated first";
  }
  const auto stats = router.stats();
  for (const auto& b : stats.backends) {
    if (b.kind != ae::BackendKind::kOffline) continue;
    EXPECT_EQ(b.cache_hits + b.cache_misses + b.rejected(), b.queries) << b.name;
  }
}
