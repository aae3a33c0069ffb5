#pragma once

/// Shared plumbing for the per-figure bench binaries. Every binary prints the
/// paper's rows/series as aligned tables, with the paper-reported value
/// alongside where applicable. Budgets scale with ATLAS_BENCH_SCALE
/// (default 1 = CI-fast; >= 4 approaches the paper's budgets).

#include <cstdlib>
#include <iostream>
#include <string>

#include "atlas/calibrator.hpp"
#include "atlas/offline_trainer.hpp"
#include "atlas/online_learner.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "env/env_service.hpp"

namespace bench {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==============================================================\n";
}

/// Where a bench writes its BENCH_*.json artifact. Resolution order:
///   1. `override_env` (e.g. ATLAS_BENCH_OUT), if set and non-empty — the
///      per-bench escape hatch CI uses to relocate one artifact;
///   2. ATLAS_BENCH_OUT_DIR/<default_name>, if the directory knob is set —
///      relocates EVERY bench artifact at once;
///   3. `default_name` in the working directory.
inline std::string bench_output_path(const std::string& default_name,
                                     const char* override_env = nullptr) {
  if (override_env != nullptr) {
    const char* value = std::getenv(override_env);
    if (value != nullptr && *value != '\0') return value;
  }
  const char* dir = std::getenv("ATLAS_BENCH_OUT_DIR");
  if (dir != nullptr && *dir != '\0') return std::string(dir) + "/" + default_name;
  return default_name;
}

inline void emit(const atlas::common::Table& table, const atlas::common::BenchOptions& opts) {
  table.print(std::cout);
  if (opts.csv) {
    std::cout << "--- csv ---\n";
    table.print_csv(std::cout);
  }
  std::cout << std::endl;
}

/// Default workload for evaluation episodes: traffic 1 at 1 m, episode
/// duration scaled from the given base seconds.
inline atlas::env::Workload workload(const atlas::common::BenchOptions& opts,
                                     double base_seconds = 20.0, int traffic = 1) {
  atlas::env::Workload wl;
  wl.traffic = traffic;
  wl.duration_ms = opts.episode_seconds(base_seconds) * 1e3;
  wl.seed = opts.seed;
  return wl;
}

/// Stage-1 budget preset (paper: 500 iterations x 16 parallel, 60 s episodes).
inline atlas::core::CalibrationOptions stage1_options(
    const atlas::common::BenchOptions& opts) {
  atlas::core::CalibrationOptions o;
  o.iterations = opts.iters(100, 20);
  o.init_iterations = opts.iters(20, 6);
  o.parallel = 8;
  o.candidates = opts.iters(800, 200);
  o.workload = workload(opts, 15.0);
  o.seed = opts.seed;
  return o;
}

/// Stage-2 budget preset (paper: 1000 iterations).
inline atlas::core::OfflineOptions stage2_options(const atlas::common::BenchOptions& opts) {
  atlas::core::OfflineOptions o;
  o.iterations = opts.iters(140, 30);
  o.init_iterations = opts.iters(30, 8);
  o.parallel = 8;
  o.candidates = opts.iters(1200, 300);
  o.workload = workload(opts, 15.0);
  o.seed = opts.seed + 1;
  return o;
}

/// Stage-3 budget preset (paper: 100 online iterations, N = 20).
inline atlas::core::OnlineOptions stage3_options(const atlas::common::BenchOptions& opts) {
  atlas::core::OnlineOptions o;
  o.iterations = opts.iters(60, 15);
  o.inner_updates = opts.iters(12, 4);
  o.candidates = opts.iters(1200, 300);
  o.workload = workload(opts, 20.0);
  o.seed = opts.seed + 2;
  // The paper clips beta at B = 10 against residual sigmas of a few
  // hundredths; our shorter episodes carry ~0.03-0.05 QoE sampling noise, so
  // the equivalent conservatism needs a tighter clip and a matched GP noise
  // floor (B and rho are tenant-adjustable by design, §6.2).
  o.clip_b = 2.5;
  o.gp.noise_variance = 2e-3;
  return o;
}

/// One episode of `backend` under `config`, through the service.
inline atlas::env::EpisodeResult run_episode(atlas::env::EnvService& service,
                                             atlas::env::BackendId backend,
                                             const atlas::env::SliceConfig& config,
                                             const atlas::env::Workload& wl) {
  return service.run(backend, config, wl);
}

/// Run stage 1 once with the preset budget; several benches need the
/// calibrated parameters as their starting point. `real` is the metered
/// backend of `service`.
inline atlas::core::CalibrationResult run_stage1(const atlas::common::BenchOptions& opts,
                                                 atlas::env::EnvService& service,
                                                 atlas::env::BackendId real) {
  atlas::core::SimCalibrator calibrator(service, real, stage1_options(opts));
  return calibrator.calibrate();
}

}  // namespace bench
