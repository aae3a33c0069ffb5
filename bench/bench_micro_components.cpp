/// Microbenchmarks (google-benchmark) — the analogue of the paper's §7.3
/// compute-cost profile (22.27 s / 27.23 s / 16.99 s per stage iteration on
/// their desktop): per-component costs of the episode simulator, surrogates,
/// and discrepancy measurement.

#include <benchmark/benchmark.h>

#include "env/env_service.hpp"
#include "gp/gaussian_process.hpp"
#include "math/kl.hpp"
#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/bnn.hpp"
#include "nn/dense_kernel.hpp"
#include "nn/optim.hpp"

using namespace atlas;

static void BM_Episode60s(benchmark::State& state) {
  env::EnvService service(env::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  env::EnvQuery q;
  q.backend = sim;
  q.workload.duration_ms = 60000.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    q.workload.seed = ++seed;  // fresh seed: no cache hits, pure episode cost
    benchmark::DoNotOptimize(service.run(q));
  }
}
BENCHMARK(BM_Episode60s)->Unit(benchmark::kMillisecond);

static void BM_EpisodeTraffic4(benchmark::State& state) {
  env::EnvService service(env::EnvServiceOptions{.threads = 1});
  const auto real = service.add_real_network();
  env::EnvQuery q;
  q.backend = real;
  q.workload.duration_ms = 60000.0;
  q.workload.traffic = 4;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    q.workload.seed = ++seed;
    benchmark::DoNotOptimize(service.run(q));
  }
}
BENCHMARK(BM_EpisodeTraffic4)->Unit(benchmark::kMillisecond);

static void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  math::Rng rng(2);
  math::Matrix x(n, 6);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  gp::GaussianProcess gp;
  for (auto _ : state) {
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

static void BM_GpPredict(benchmark::State& state) {
  math::Rng rng(3);
  math::Matrix x(100, 6);
  math::Vec y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  gp::GaussianProcess gp;
  gp.fit(x, y);
  math::Vec q(6, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(gp.predict(q));
}
BENCHMARK(BM_GpPredict);

static void BM_BnnTrainEpoch(benchmark::State& state) {
  math::Rng rng(4);
  nn::BnnConfig cfg;
  cfg.sizes = {8, 64, 64, 1};
  nn::Bnn bnn(cfg, rng);
  nn::Adadelta opt(1.0);
  const std::size_t n = 512;
  math::Matrix x(n, 8);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 8; ++j) x(i, j) = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnn.train(x, y, 1, 64, opt, nullptr, rng));
  }
}
BENCHMARK(BM_BnnTrainEpoch)->Unit(benchmark::kMillisecond);

static void BM_BnnThompsonScore2k(benchmark::State& state) {
  math::Rng rng(5);
  nn::BnnConfig cfg;
  cfg.sizes = {8, 64, 64, 1};
  nn::Bnn bnn(cfg, rng);
  math::Matrix candidates(2000, 8);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t j = 0; j < 8; ++j) candidates(i, j) = rng.uniform(0, 1);
  }
  for (auto _ : state) {
    const auto draw = bnn.thompson(rng);
    benchmark::DoNotOptimize(draw.predict_batch(candidates));
  }
}
BENCHMARK(BM_BnnThompsonScore2k)->Unit(benchmark::kMillisecond);

// The dense kernel alone, at each lane count this CPU runs: one Thompson draw
// of an 8-64-64-1 network over a scan tile of 256 rows.
static void BM_BnnPredictTile(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 256;
  math::Rng rng(8);
  nn::BnnConfig cfg;
  cfg.sizes = {8, 64, 64, 1};
  nn::Bnn bnn(cfg, rng);
  const nn::BnnSample draw = bnn.thompson(rng);
  math::Matrix tile(kRows, 8);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < 8; ++j) tile(i, j) = rng.uniform(0, 1);
  }
  math::Vec out(kRows);
  for (auto _ : state) {
    nn::dense_kernel::predict_rows(lanes, draw, tile.data(), kRows, 8, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(kRows),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(lanes == nn::dense_kernel::dispatched_lanes() ? "dispatched" : "");
}
BENCHMARK(BM_BnnPredictTile)->Apply([](benchmark::internal::Benchmark* b) {
  for (std::size_t lanes : nn::dense_kernel::kLaneCounts) {
    if (nn::dense_kernel::supported(lanes)) b->Arg(static_cast<std::int64_t>(lanes));
  }
});

static void BM_KlDivergence(benchmark::State& state) {
  math::Rng rng(6);
  math::Vec p(500);
  math::Vec q(500);
  for (auto& v : p) v = rng.normal(170, 45);
  for (auto& v : q) v = rng.normal(120, 32);
  for (auto _ : state) benchmark::DoNotOptimize(math::kl_divergence(p, q));
}
BENCHMARK(BM_KlDivergence);

static void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  math::Rng rng(7);
  math::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  }
  math::Matrix spd = math::matmul(a, a.transposed());
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  for (auto _ : state) benchmark::DoNotOptimize(math::cholesky(spd));
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(128)->Arg(256);

BENCHMARK_MAIN();
