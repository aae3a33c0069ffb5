#pragma once

#include <functional>

#include "atlas/calibrator.hpp"
#include "atlas/offline_trainer.hpp"
#include "atlas/online_learner.hpp"

namespace atlas::core {

/// End-to-end Atlas configuration: one knob block per stage.
struct PipelineOptions {
  CalibrationOptions stage1;
  OfflineOptions stage2;
  OnlineOptions stage3;
  bool run_stage1 = true;  ///< false = offline-train on the ORIGINAL simulator
                           ///< ("No stage 1" ablation, Fig. 24).
  bool run_stage2 = true;  ///< false = online learning learns the whole QoE
                           ///< ("No stage 2" ablation, Fig. 24).
  bool run_stage3 = true;  ///< false = apply the offline optimum unchanged
                           ///< ("No stage 3" ablation, Fig. 24).
};

/// Combined output of a full pipeline run.
struct PipelineResult {
  CalibrationResult calibration;  ///< Empty history if stage 1 skipped.
  OfflineResult offline;          ///< Empty history if stage 2 skipped.
  OnlineResult online;
  env::EnvServiceStats env_stats;  ///< Final per-backend query/cache accounting.
};

/// The pipeline's three stages, in execution order.
enum class PipelineStage { kCalibration, kOfflineTraining, kOnlineLearning };

/// One progress event: each enabled stage emits a starting event
/// (`finished == false`) and a completion event (`finished == true`);
/// disabled stages emit a single `skipped` event. `env_stats` snapshots the
/// service counters at the event, so callers can watch SLA exposure and
/// cache efficiency accumulate per stage instead of staring at one
/// monolithic blocking run().
struct PipelineProgress {
  PipelineStage stage = PipelineStage::kCalibration;
  bool finished = false;
  bool skipped = false;
  env::EnvServiceStats env_stats;
};

using PipelineCallback = std::function<void(const PipelineProgress&)>;

/// The integrated three-stage Atlas system (paper §3): calibrate the
/// simulator against the real network's online collection, train the
/// configuration policy offline in the augmented simulator, then learn
/// safely online. Ablation flags reproduce the paper's Fig. 24. All
/// environment queries flow through the EnvService, which owns the
/// parallelism, memoization, and the per-backend query accounting reported
/// in PipelineResult::env_stats.
class AtlasPipeline {
 public:
  /// `real` names the metered backend inside `service`.
  AtlasPipeline(env::EnvClient& service, env::BackendId real, PipelineOptions options);

  /// Run the enabled stages and return every trace. `progress` (optional)
  /// receives per-stage start/finish/skip events. Stats (in events and in
  /// PipelineResult::env_stats) count THIS run's queries only, so pipelines
  /// sharing a long-lived service report clean per-run accounting. Each run
  /// registers its own stage-1/augmented simulator backends with the
  /// service (registry entries are small and append-only).
  PipelineResult run(const PipelineCallback& progress = {});

 private:
  env::EnvClient& service_;
  env::BackendId real_;
  PipelineOptions options_;
};

}  // namespace atlas::core
