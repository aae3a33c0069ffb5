/// EnvService microbench — batched vs sequential environment-query
/// throughput. The paper's stages issue up to 16 parallel simulator queries
/// per Thompson-sampling iteration; this bench shows what the service's
/// batching buys at 1/4/8/16 workers, what its memoization buys on a
/// repeated batch (hit rate 1.0 -> no episodes at all), and what striping
/// the memo table buys under a storm of cache hits.

#include <chrono>

#include "env/env_service.hpp"
#include "bench_util.hpp"

int main() {
  using namespace atlas;
  using clock = std::chrono::steady_clock;
  const auto opts = common::bench_options();
  bench::banner("EnvService: batched vs sequential query throughput",
                "service-level analogue of paper Fig. 13's parallel queries");

  const std::size_t batch_size = 32;
  const auto wl = bench::workload(opts, 4.0);

  auto make_batch = [&](env::BackendId sim, std::uint64_t seed_base) {
    std::vector<env::EnvQuery> batch(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch[i].backend = sim;
      batch[i].workload = wl;
      batch[i].workload.seed = seed_base + i;  // distinct seeds: no cache hits
    }
    return batch;
  };
  auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };

  // Sequential reference: the old world, one blocking run() after another.
  double sequential_ms = 0.0;
  {
    env::EnvServiceOptions so;
    so.threads = 1;
    env::EnvService service(so);
    const auto sim = service.add_simulator();
    const auto batch = make_batch(sim, opts.seed * 1000);
    const auto t0 = clock::now();
    for (const auto& q : batch) (void)service.run(q);
    sequential_ms = ms_since(t0);
  }

  common::Table t({"workers", "batch wall (ms)", "episodes/s", "speedup vs sequential"});
  for (std::size_t workers : {1u, 4u, 8u, 16u}) {
    env::EnvServiceOptions so;
    so.threads = workers;
    env::EnvService service(so);
    const auto sim = service.add_simulator();
    const auto batch = make_batch(sim, opts.seed * 1000);

    const auto t0 = clock::now();
    const auto results = service.run_batch(batch);
    const double batch_ms = ms_since(t0);

    t.add_row({std::to_string(workers), common::fmt(batch_ms, 1),
               common::fmt(static_cast<double>(results.size()) / (batch_ms / 1e3), 1),
               common::fmt(sequential_ms / batch_ms, 2) + "x"});
  }
  bench::emit(t, opts);

  // Memoization: replay the identical batch — every query is a cache hit.
  {
    env::EnvServiceOptions so;
    so.threads = 8;
    env::EnvService service(so);
    const auto sim = service.add_simulator();
    const auto batch = make_batch(sim, opts.seed * 1000);
    (void)service.run_batch(batch);  // warm the cache

    const auto t0 = clock::now();
    (void)service.run_batch(batch);
    const double cached_ms = ms_since(t0);

    const auto stats = service.backend_stats(sim);
    common::Table c({"metric", "value"});
    c.add_row({"cached batch wall (ms)", common::fmt(cached_ms, 3)});
    c.add_row({"cache hits / queries", std::to_string(stats.cache_hits) + " / " +
                                           std::to_string(stats.queries)});
    c.add_row({"episodes actually run", std::to_string(stats.episodes)});
    std::cout << "Replaying the identical batch (memoization):\n";
    bench::emit(c, opts);
  }

  // Sharded contention: every query is a cache HIT, so the memo-table lock is
  // the entire cost. One stripe serializes all workers on one mutex; 16
  // stripes let hits on different keys proceed independently (the win grows
  // with physical cores).
  {
    const std::size_t keys = 64;
    const std::size_t hits = 4096;
    auto time_hits = [&](std::size_t shards) {
      env::EnvServiceOptions so;
      so.threads = 8;
      so.cache_shards = shards;
      env::EnvService service(so);
      const auto sim = service.add_simulator();
      std::vector<env::EnvQuery> warm(keys);
      for (std::size_t i = 0; i < keys; ++i) {
        warm[i].backend = sim;
        warm[i].workload = wl;
        warm[i].workload.seed = opts.seed * 3000 + i;
      }
      (void)service.run_batch(warm);  // populate the cache

      std::vector<env::EnvQuery> storm(hits);
      for (std::size_t i = 0; i < hits; ++i) storm[i] = warm[i % keys];
      const auto t0 = clock::now();
      (void)service.run_batch(storm);
      return std::make_pair(ms_since(t0), service.cache_shard_count());
    };

    common::Table s({"cache stripes", "hit storm wall (ms)", "hits/s"});
    for (std::size_t shards : {1u, 16u}) {
      const auto [storm_ms, actual] = time_hits(shards);
      s.add_row({std::to_string(actual), common::fmt(storm_ms, 2),
                 common::fmt(static_cast<double>(hits) / (storm_ms / 1e3), 0)});
    }
    std::cout << "Cache-hit storm (" << hits << " hits over " << keys
              << " keys, 8 workers):\n";
    bench::emit(s, opts);
  }

  return 0;
}
