/// EnvService microbench — batched vs sequential environment-query
/// throughput. The paper's stages issue up to 16 parallel simulator queries
/// per Thompson-sampling iteration; this bench shows what the service's
/// batching buys at 1/4/8/16 workers.

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
      batch[i].workload.seed = seed_base + i;  // distinct seeds: distinct episodes
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

  return 0;
}
