/// Quickstart: run the full Atlas pipeline end to end on a small budget.
///
/// The three stages mirror the paper: (1) calibrate the simulator against
/// the "real" network's logged latencies, (2) train a configuration policy
/// offline in the augmented simulator, (3) learn the residual online, safely.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <iostream>

#include "env/env_service.hpp"
#include "atlas/pipeline.hpp"
#include "common/table.hpp"

int main() {
  using namespace atlas;

  // The EnvService owns the environments, the thread pool and the
  // per-backend query accounting. The real network is a
  // metered (online) backend: treat it as a black box.
  env::EnvService service;
  const auto real = service.add_real_network();

  core::PipelineOptions options;
  // Small budgets so this example finishes in ~1-2 minutes; raise them for
  // paper-scale runs (stage1: 500 iters, stage2: 1000, stage3: 100).
  options.stage1.iterations = 40;
  options.stage1.init_iterations = 12;
  options.stage1.parallel = 4;
  options.stage1.candidates = 600;
  options.stage1.workload.duration_ms = 10000.0;
  options.stage2.iterations = 60;
  options.stage2.init_iterations = 15;
  options.stage2.parallel = 4;
  options.stage2.candidates = 800;
  options.stage2.workload.duration_ms = 10000.0;
  options.stage3.iterations = 20;
  options.stage3.inner_updates = 5;
  options.stage3.candidates = 800;
  options.stage3.workload.duration_ms = 10000.0;

  std::cout << "Atlas quickstart: three-stage learn-to-configure\n\n";
  core::AtlasPipeline pipeline(service, real, options);
  const auto stage_name = [](core::PipelineStage s) {
    switch (s) {
      case core::PipelineStage::kCalibration: return "stage 1 (calibration)";
      case core::PipelineStage::kOfflineTraining: return "stage 2 (offline training)";
      default: return "stage 3 (online learning)";
    }
  };
  const auto result = pipeline.run([&](const core::PipelineProgress& p) {
    std::cout << "[pipeline] " << stage_name(p.stage)
              << (p.skipped ? " skipped" : (p.finished ? " done" : " starting"))
              << " — online interactions so far: " << p.env_stats.online_queries << "\n";
  });

  common::Table stage1({"metric", "value"});
  stage1.add_row({"original sim-to-real KL", common::fmt(result.calibration.original_kl)});
  stage1.add_row({"calibrated KL", common::fmt(result.calibration.best_kl)});
  stage1.add_row({"parameter distance", common::fmt(result.calibration.best_distance)});
  std::cout << "Stage 1 - learning-based simulator:\n";
  stage1.print(std::cout);

  const auto& policy = result.offline.policy;
  common::Table stage2({"metric", "value"});
  stage2.add_row({"offline best usage", common::fmt_pct(policy.best_usage)});
  stage2.add_row({"offline best QoE (simulator)", common::fmt(policy.best_qoe)});
  stage2.add_row({"final dual multiplier", common::fmt(policy.final_lambda)});
  std::cout << "\nStage 2 - offline training:\n";
  stage2.print(std::cout);

  double final_usage = 0.0;
  double final_qoe = 0.0;
  const std::size_t tail = std::min<std::size_t>(5, result.online.history.size());
  for (std::size_t i = result.online.history.size() - tail; i < result.online.history.size();
       ++i) {
    final_usage += result.online.history[i].usage / static_cast<double>(tail);
    final_qoe += result.online.history[i].qoe_real / static_cast<double>(tail);
  }
  common::Table stage3({"metric", "value"});
  stage3.add_row({"online iterations", std::to_string(result.online.history.size())});
  stage3.add_row({"avg usage (last 5)", common::fmt_pct(final_usage)});
  stage3.add_row({"avg real QoE (last 5)", common::fmt(final_qoe)});
  std::cout << "\nStage 3 - online learning (QoE requirement 0.9):\n";
  stage3.print(std::cout);

  common::Table accounting({"backend", "kind", "queries"});
  for (const auto& b : result.env_stats.backends) {
    accounting.add_row({b.name, b.kind == env::BackendKind::kOnline ? "online" : "offline",
                        std::to_string(b.queries)});
  }
  std::cout << "\nEnvService accounting (offline queries are free; online ones are\n"
               "SLA exposure — the paper's sample-efficiency bookkeeping):\n";
  accounting.print(std::cout);

  std::cout << "\nDone. See examples/slice_*.cpp for per-stage deep dives.\n";
  return 0;
}
