#pragma once

#include <optional>
#include <vector>

#include "atlas/offline_trainer.hpp"
#include "bo/acquisition.hpp"
#include "gp/gaussian_process.hpp"

namespace atlas::core {

/// What the online model learns (paper Fig. 23 ablation):
///  - kGpResidual:   Atlas — a GP learns only the sim-to-real QoE difference
///                   G(psi) (Eq. 12).
///  - kBnnResidual:  a fresh BNN learns the residual (sample-inefficient).
///  - kBnnContinued: keep training the offline BNN on real QoE directly.
///  - kGpWhole:      a GP learns the whole QoE with no offline model
///                   (the "No stage 2" pipeline ablation of Fig. 24).
enum class OnlineModel { kGpResidual, kBnnResidual, kBnnContinued, kGpWhole };

/// Options for the online learning stage (paper §6, Alg. 3).
struct OnlineOptions {
  std::size_t iterations = 100;   ///< Online interactions (paper: 100).
  std::size_t inner_updates = 20; ///< N multiplier updates per online step via
                                  ///< the augmented simulator (paper: 20).
  std::size_t candidates = 2000;  ///< Actions scored per selection.
  double epsilon = 0.1;           ///< Dual step size.
  double rho = 0.1;               ///< cRGP-UCB scaling parameter (paper §8).
  double clip_b = 10.0;           ///< cRGP-UCB clip bound B (paper §8).
  bo::AcquisitionKind acquisition = bo::AcquisitionKind::kCrgpUcb;
  OnlineModel model = OnlineModel::kGpResidual;
  bool offline_acceleration = true;  ///< Eq. 15 inner updates (Fig. 23 ablation).

  app::Sla sla;
  env::Workload workload;
  gp::GpConfig gp;                 ///< Residual-GP configuration (Matern 2.5).
  std::uint64_t seed = 3;
};

/// One online interaction.
struct OnlineStep {
  env::SliceConfig config;
  double usage = 0.0;
  double qoe_real = 0.0;
  double qoe_sim = 0.0;   ///< Simulator QoE at the same action (residual obs).
  double lambda = 0.0;
  double beta = 0.0;      ///< Exploration weight drawn this step.
};

/// Stage-3 output: the interaction trace (regrets are computed against an
/// oracle by atlas/oracle.hpp).
struct OnlineResult {
  std::vector<OnlineStep> history;
  double final_lambda = 0.0;
};

/// Where lambda can be after `depth` more dual steps from `lambda` whose QoE
/// estimates lie in [0, 1]: `lo` takes every step at QoE 1 and `hi` every
/// step at QoE 0. By dual_step's monotonicity (epsilon >= 0) the lambda that
/// any such steps reach lies in [lo, hi] exactly, with no rounding slack.
struct LambdaBracket {
  double lo = 0.0;
  double hi = 0.0;
};
LambdaBracket lambda_bracket(double lambda, std::size_t depth, double epsilon,
                             double availability);

/// Stage 3 — safe online learning in the real network (paper §6): a Gaussian
/// process learns only the sim-to-real QoE difference on top of the offline
/// BNN, configurations are selected by a conservative clipped randomized
/// GP-UCB acquisition, and the dual multiplier is updated offline against the
/// augmented simulator between online interactions.
class OnlineLearner {
 public:
  /// `policy` may be null only for OnlineModel::kGpWhole ("no stage 2").
  /// `simulator` names the augmented offline backend used for residual
  /// observations and offline acceleration; `real` names the metered live
  /// network. Every real query is accounted by the service as SLA exposure.
  /// Throws std::invalid_argument for an empty candidate pool, or one under
  /// 4 with offline acceleration on (its inner scans use candidates / 4), for
  /// an `epsilon` that is not finite and >= 0, a non-finite SLA availability,
  /// a latency threshold or episode duration that is not finite and > 0, and,
  /// under cRGP-UCB, a `rho` that is not finite and > 0 or a `clip_b` that is
  /// not finite and >= 0.
  OnlineLearner(const OfflinePolicy* policy, env::EnvClient& service,
                env::BackendId simulator, env::BackendId real, OnlineOptions options);

  OnlineResult learn();

 private:
  double offline_qoe_estimate(const math::Vec& config_norm) const;

  const OfflinePolicy* policy_;
  env::EnvClient& service_;
  env::BackendId simulator_;
  env::BackendId real_;
  OnlineOptions options_;
  bo::BoxSpace space_;
};

}  // namespace atlas::core
