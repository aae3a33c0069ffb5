/// EnvService microbench — batched vs sequential environment-query
/// throughput. The paper's stages issue up to 16 parallel simulator queries
/// per Thompson-sampling iteration; this bench shows what the service's
/// batching buys at 1/4/8/16 workers, what its memoization buys on a
/// repeated batch (hit rate 1.0 -> no episodes at all), and what the CRN
/// seed plan buys iteration-over-iteration (BENCH_crn_reuse.json).

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "env/env_service.hpp"
#include "env/seed_plan.hpp"
#include "math/rng.hpp"
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

  // CRN reuse, iteration over iteration: a stage-2-shaped loop where each
  // BO iteration re-scores a pool of incumbent configurations and explores a
  // few new ones. Under the `fresh` policy every query draws a new seed, so
  // the memo table never pays off during training; under `crn` a revisited
  // incumbent replays a seed the table already holds and costs nothing.
  // Writes BENCH_crn_reuse.json (override with ATLAS_BENCH_CRN_OUT) so the
  // hit-rate trajectory is tracked like BENCH_episode_engine.json.
  {
    const std::size_t iterations = opts.iters(12, 6);
    const std::size_t batch = 8;
    const std::size_t pool_size = 10;
    const std::size_t explore_per_iter = 2;  // 6 of 8 queries revisit the pool

    struct PolicyRun {
      const char* name = "";
      double wall_ms = 0.0;
      env::BackendStats stats;
    };
    auto run_policy = [&](env::SeedPolicy policy) {
      env::EnvServiceOptions so;
      so.threads = 8;
      env::EnvService service(so);
      const auto sim = service.add_simulator();
      env::SeedPlanOptions plan_options;
      plan_options.policy = policy;
      plan_options.replicates = 1;  // one common seed: the purest pairing
      const env::SeedStream seeds =
          env::SeedPlan(opts.seed, plan_options).stream(env::SeedDomain::kStage2Query, batch);

      math::Rng pick(opts.seed * 77);  // deterministic candidate choices
      auto config_at = [](std::size_t idx) {
        env::SliceConfig c;
        c.bandwidth_ul = 10.0 + 2.0 * static_cast<double>(idx % 32);
        c.bandwidth_dl = c.bandwidth_ul;
        return c;
      };

      const auto t0 = clock::now();
      std::size_t next_explorer = 1000;  // explorer configs are one-shot
      for (std::size_t iter = 0; iter < iterations; ++iter) {
        std::vector<env::EnvQuery> queries(batch);
        for (std::size_t q = 0; q < batch; ++q) {
          const bool explore = q >= batch - explore_per_iter;
          const std::size_t idx =
              explore ? next_explorer++
                      : static_cast<std::size_t>(pick.uniform_int(0, pool_size - 1));
          queries[q].backend = sim;
          queries[q].config = config_at(idx);
          queries[q].workload = wl;
          seeds.apply(queries[q], iter, q);
        }
        (void)service.run_batch(queries);
      }
      PolicyRun run;
      run.name = env::seed_policy_name(policy);
      run.wall_ms = ms_since(t0);
      run.stats = service.backend_stats(sim);
      return run;
    };

    const PolicyRun fresh = run_policy(env::SeedPolicy::kFresh);
    const PolicyRun crn = run_policy(env::SeedPolicy::kCrn);

    auto hit_rate = [](const env::BackendStats& s) {
      const auto lookups = s.cache_hits + s.cache_misses;
      return lookups == 0 ? 0.0 : static_cast<double>(s.cache_hits) / static_cast<double>(lookups);
    };
    common::Table t2({"seed policy", "queries", "episodes", "crn hits", "hit rate",
                      "wall (ms)", "episodes saved"});
    for (const PolicyRun* run : {&fresh, &crn}) {
      const auto saved = fresh.stats.episodes - run->stats.episodes;
      t2.add_row({run->name, std::to_string(run->stats.queries),
                  std::to_string(run->stats.episodes), std::to_string(run->stats.crn_hits),
                  common::fmt(hit_rate(run->stats), 3), common::fmt(run->wall_ms, 1),
                  common::fmt(100.0 * static_cast<double>(saved) /
                                  static_cast<double>(fresh.stats.episodes),
                              1) + "%"});
    }
    std::cout << "CRN seed reuse across " << iterations << " iterations (" << batch
              << " queries each, " << explore_per_iter << " explorers):\n";
    bench::emit(t2, opts);

    const std::string out_path =
        bench::bench_output_path("BENCH_crn_reuse.json", "ATLAS_BENCH_CRN_OUT");
    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"crn_reuse\",\n  \"unit\": \"episodes\",\n"
        << "  \"iterations\": " << iterations << ",\n  \"batch\": " << batch << ",\n"
        << "  \"policies\": [\n";
    bool first = true;
    for (const PolicyRun* run : {&fresh, &crn}) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"policy\": \"" << run->name << "\", \"queries\": " << run->stats.queries
          << ", \"episodes\": " << run->stats.episodes
          << ", \"crn_hits\": " << run->stats.crn_hits
          << ", \"hit_rate\": " << hit_rate(run->stats)
          << ", \"wall_ms\": " << run->wall_ms << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
