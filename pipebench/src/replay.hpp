#pragma once

// Surrogate replay: re-issues each stage's calls into the nn, gp and bo
// layers at the shapes and dataset sizes that stage used (same network
// sizes, candidate counts, epochs and per-iteration dataset rows, taken from
// the stage's own history), timing each layer with the driver-thread CPU
// clock. The stages themselves stay untouched, so these are REPLAYED times:
// comparable with the stage's driver CPU, not carved out of it.

#include <array>

#include "atlas/pipeline.hpp"

namespace pipebench {

struct ReplayTimes {
  double bnn_train_s = 0.0;      ///< nn::Bnn::train
  double thompson_scan_s = 0.0;  ///< Bnn::thompson + BnnSample::predict
  double predict_mean_s = 0.0;   ///< Bnn::predict_at_mean (stage 3's offline estimate)
  double gp_fit_s = 0.0;         ///< gp::GaussianProcess::fit
  double gp_predict_s = 0.0;     ///< gp::GaussianProcess::predict
  double bo_sample_s = 0.0;      ///< bo::BoxSpace::sample / sample_in_ball

  double total() const {
    return bnn_train_s + thompson_scan_s + predict_mean_s + gp_fit_s + gp_predict_s +
           bo_sample_s;
  }
  ReplayTimes& operator+=(const ReplayTimes& o);
};

/// Replay every stage that ran (left a history in `result`); index i holds
/// stage i+1. Stage 3 needs the stage-2 policy in `result`.
std::array<ReplayTimes, 3> replay_surrogate(const atlas::core::PipelineOptions& options,
                                            const atlas::core::PipelineResult& result);

}  // namespace pipebench
