#pragma once

#include <memory>
#include <vector>

#include "app/qoe.hpp"
#include "bo/acquisition.hpp"
#include "bo/space.hpp"
#include "env/client.hpp"
#include "math/rng.hpp"
#include "nn/bnn.hpp"

namespace atlas::core {

/// One dual (multiplier) update of Alg. 2 and Alg. 3 (Eq. 9): lambda' =
/// max(0, lambda - epsilon (qoe - availability)). For epsilon >= 0 every
/// operation in it is monotone in IEEE arithmetic: lambda' never falls as
/// lambda rises or as qoe falls.
double dual_step(double lambda, double qoe, double epsilon, double availability);

/// Surrogate / acquisition used for offline policy training. kBnnPts is
/// Atlas; the GP variants are the paper's Fig. 17 comparison points.
enum class OfflineSurrogate { kBnnPts, kGpEi, kGpPi, kGpUcb };

/// Options for the offline training stage (paper §5, Alg. 2).
struct OfflineOptions {
  std::size_t iterations = 150;      ///< Optimization iterations (paper: 1000).
  std::size_t init_iterations = 25;  ///< Pure exploration (paper: 100).
  std::size_t parallel = 8;          ///< Parallel queries (paper: 16).
  std::size_t candidates = 2000;     ///< Actions sampled per TS draw (paper: 10k+).
  double epsilon = 0.1;              ///< Dual step size (paper §8).
  OfflineSurrogate surrogate = OfflineSurrogate::kBnnPts;

  app::Sla sla;           ///< Y (latency threshold) and E (availability).
  env::Workload workload; ///< Configuration-interval workload.

  nn::BnnConfig bnn;            ///< QoE surrogate; sized on demand.
  std::size_t train_epochs = 6; ///< BNN epochs per iteration.
  std::uint64_t seed = 2;

  /// Experience replay (paper §10, Adaptability): (configuration, QoE)
  /// transitions from a previous training run seed the surrogate's dataset
  /// before any new simulator query — e.g., after a configuration-space or
  /// infrastructure change, the old buffer accelerates re-training.
  std::vector<std::pair<env::SliceConfig, double>> replay;
};

/// One evaluated configuration query.
struct OfflineStep {
  env::SliceConfig config;
  double usage = 0.0;
  double qoe = 0.0;
  double lambda = 0.0;
};

/// The trained offline policy: the BNN estimate of the simulator QoE
/// Q_s(state, Y, a) plus the incumbent configuration and the final dual
/// multiplier — everything Stage 3 needs as its starting point (§5.2).
struct OfflinePolicy {
  std::shared_ptr<nn::Bnn> qoe_model;
  app::Sla sla;
  int traffic = 1;
  env::SliceConfig best_config;
  double best_usage = 1.0;
  double best_qoe = 0.0;
  double final_lambda = 0.0;

  /// Surrogate input layout: [traffic/4, Y/600 ms, a normalized (6)].
  static math::Vec input(int traffic, double threshold_ms, const math::Vec& config_norm);
  /// The same layout written to `row` (2 + dim doubles) from the `dim`
  /// normalized coordinates at `config_norm`.
  static void input(int traffic, double threshold_ms, const double* config_norm,
                    std::size_t dim, double* row);

  /// Offline QoE estimate Q_s(a) in [0, 1] at this policy's (traffic, Y).
  double predict_qoe(const env::SliceConfig& config) const;
};

/// Per-iteration training trace (Fig. 16's two curves).
struct OfflineTrace {
  std::vector<double> avg_usage;
  std::vector<double> avg_qoe;
  std::vector<double> lambda;
};

/// Stage-2 output.
struct OfflineResult {
  OfflinePolicy policy;
  std::vector<OfflineStep> history;
  OfflineTrace trace;
};

/// Stage 2 — offline policy training in the augmented simulator (paper §5):
/// constrained Bayesian optimization of the configuration action minimizing
/// resource usage subject to Pr(QoE >= E), relaxed by the adaptive
/// Lagrangian L = F(a) - lambda (Q_s(a) - E) with dual updates (Eqs. 8-9).
class OfflineTrainer {
 public:
  /// `simulator` names the (augmented) offline backend inside `service`;
  /// parallel QoE queries run batched through the service. Throws
  /// std::invalid_argument for an empty candidate pool, `parallel == 0`, an
  /// `epsilon` that is not finite and >= 0, a non-finite SLA availability,
  /// and a latency threshold or episode duration that is not finite and > 0.
  OfflineTrainer(env::EnvClient& service, env::BackendId simulator, OfflineOptions options);

  OfflineResult train();

 private:
  env::EnvClient& service_;
  env::BackendId simulator_;
  OfflineOptions options_;
  bo::BoxSpace space_;
};

}  // namespace atlas::core
