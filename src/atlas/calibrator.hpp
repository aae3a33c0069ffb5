#pragma once

#include <optional>
#include <vector>

#include "bo/space.hpp"
#include "env/client.hpp"
#include "math/kl.hpp"
#include "math/rng.hpp"
#include "nn/bnn.hpp"

namespace atlas::core {

/// Which surrogate drives the Stage-1 search: Atlas's BNN with parallel
/// Thompson sampling, or the paper's "GP-based approach" comparison point
/// (GP surrogate, expected improvement, sequential queries).
enum class CalibratorSurrogate { kBnnPts, kGpEi };

/// How Thompson-sampling candidates are drawn: i.i.d. uniform (the paper's
/// "randomly sample tens of thousands"), or a scrambled-Halton
/// low-discrepancy stream (design-choice ablation; covers the box more
/// evenly at equal candidate count).
enum class CandidateSampler { kUniform, kHalton };

/// Options for the learning-based-simulator stage (paper §4, Alg. 1).
struct CalibrationOptions {
  std::size_t iterations = 200;       ///< Optimization iterations (paper: 500).
  std::size_t init_iterations = 30;   ///< Pure-exploration warmup (paper: 100).
  std::size_t parallel = 8;           ///< Parallel queries per iteration (paper: 16).
  std::size_t candidates = 1500;      ///< TS candidate pool (paper: tens of thousands).
  double alpha = 2.0;                 ///< Weight of the parameter distance (§4.2).
  double ball_radius = 0.5;           ///< H of Eq. 2 (normalized parameter distance).
  CalibratorSurrogate surrogate = CalibratorSurrogate::kBnnPts;
  CandidateSampler sampler = CandidateSampler::kUniform;

  /// Continual recalibration (paper §10, Scalability): when the
  /// infrastructure changes, restart the search from the PREVIOUS optimum —
  /// candidates are drawn around this center while the parameter distance of
  /// Eq. 2 stays anchored at the specification defaults x_hat.
  std::optional<env::SimParams> search_center;

  std::size_t real_episodes = 2;      ///< Episodes logged into D_r.
  env::Workload workload;             ///< Scenario of the online collection.
  math::KlOptions kl;                 ///< Discrepancy measurement layout.

  nn::BnnConfig bnn;                  ///< Stage-1 surrogate; sized on demand.
  std::size_t train_epochs = 6;       ///< BNN epochs per iteration.
  std::uint64_t seed = 1;
};

/// One evaluated simulation-parameter query.
struct CalibrationStep {
  env::SimParams params;
  double kl = 0.0;
  double distance = 0.0;
  double weighted = 0.0;  ///< kl + alpha * distance.
};

/// Output of Stage 1.
struct CalibrationResult {
  env::SimParams best_params;
  double best_kl = 0.0;
  double best_distance = 0.0;
  double best_weighted = 0.0;
  double original_kl = 0.0;  ///< Discrepancy of the spec-default simulator.
  std::vector<CalibrationStep> history;          ///< Every query, in order.
  std::vector<double> avg_weighted_per_iter;     ///< Fig. 8 / Fig. 13 series.
};

/// Stage 1 — the learning-based simulator (paper §4): Bayesian optimization
/// over the Table 3 simulation parameters minimizing the weighted sim-to-real
/// discrepancy KL[D_r || D_s(x)] + alpha * |x - x_hat|_2 subject to the
/// parameter ball of Eq. 2.
class SimCalibrator {
 public:
  /// `real` names the metered backend inside `service` that provides the
  /// online collection D_r. Simulator evaluations run batched through the
  /// service against a private offline backend with per-query Table 3
  /// parameter overrides (and profit from its memoization + accounting).
  /// Throws std::invalid_argument for an empty candidate pool,
  /// `parallel == 0`, a `ball_radius` that is not finite and > 0, a
  /// non-finite `alpha` or an episode duration that is not finite and > 0,
  /// before any episode runs.
  SimCalibrator(env::EnvClient& service, env::BackendId real, CalibrationOptions options);

  /// Run the search (Alg. 1) and return the calibration.
  CalibrationResult calibrate();

  /// Evaluate the sim-to-real discrepancy of a given parameter vector under
  /// this calibrator's D_r (used by benches for heatmaps / sweeps).
  double discrepancy_of(const env::SimParams& params, std::uint64_t seed) const;

 private:
  math::Vec collect_real_latencies() const;
  /// KL(D_r || episode latencies); an episode with no frames scores KL + 10.
  double discrepancy_from(const env::EpisodeResult& episode) const;

  env::EnvClient& service_;
  env::BackendId real_;
  CalibrationOptions options_;  ///< Validated before sim_ is registered.
  env::BackendId sim_;          ///< Private offline backend for parameter queries.
  bo::BoxSpace space_;
  math::Vec d_real_;  ///< Cached online collection.
};

}  // namespace atlas::core
