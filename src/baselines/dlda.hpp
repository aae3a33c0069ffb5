#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "app/qoe.hpp"
#include "baselines/online_trace.hpp"
#include "env/client.hpp"
#include "math/rng.hpp"
#include "nn/mlp.hpp"

namespace atlas::baselines {

/// DLDA (Shi et al., NSDI '21), adapted per the paper's §8: a teacher DNN is
/// trained offline on a GRID-SEARCHED simulator dataset (4 values per
/// dimension -> 4096 configurations), transferred to a student that keeps
/// fine-tuning on online transitions. Configurations are chosen by sampling
/// 10 k candidates and taking the minimum-usage one whose *predicted* QoE
/// meets the requirement — prediction-driven, so model bias feeds straight
/// into SLA violations (the effect behind the paper's Fig. 21).
struct DldaOptions {
  std::size_t grid_per_dim = 4;   ///< Grid resolution (paper: 4 -> 4096 points).
  std::vector<std::size_t> hidden = {64, 64};
  std::size_t teacher_epochs = 200;
  double teacher_lr = 1e-3;
  // Online transfer is deliberately gentle (as in DLDA: the student keeps
  // the teacher's representation and only adapts slowly on the tiny online
  // set) — so the teacher's simulator optimism persists online, and the
  // student keeps re-selecting cheap configurations the real network cannot
  // actually serve. That stickiness is the effect behind the paper's
  // Fig. 21 / Table 5 (DLDA: worst QoE regret).
  std::size_t student_epochs_per_step = 2;
  double student_lr = 1e-5;
  std::size_t select_samples = 4000;  ///< Candidates per selection (paper: 10 k).
  std::size_t online_iterations = 100;
  app::Sla sla;
  env::Workload workload;
  std::uint64_t seed = 13;
};

/// DLDA's grid dataset: each grid configuration's normalized coordinates and
/// its episode's QoE at each latency threshold the grid was labelled at.
struct DldaGrid {
  std::vector<math::Vec> configs;
  std::vector<math::Vec> qoe;  ///< qoe[t][i]: configuration i at threshold t
};

class Dlda {
 public:
  /// `offline_env` names the offline backend of `service` that generates the
  /// grid dataset (the paper grid-searches the simulator); collection runs
  /// as one batched EnvService request.
  Dlda(env::EnvClient& service, env::BackendId offline_env, DldaOptions options);

  /// Run the grid's episodes and label each at every threshold in
  /// `thresholds_ms`. The episodes depend on the seed and the workload
  /// only, so one grid serves every threshold.
  DldaGrid collect_grid(std::span<const double> thresholds_ms) const;

  /// Collect the grid dataset at `sla.latency_threshold_ms` and train the
  /// teacher on it. Must run before select()/learn_online(). Returns the
  /// final training MSE.
  double train_offline();
  /// Train the teacher on collected grid configurations and their QoE
  /// labels at `sla.latency_threshold_ms` (one of DldaGrid::qoe).
  double train_offline(const std::vector<math::Vec>& configs, const math::Vec& qoe);

  /// Offline policy (Figs. 17-19): min-usage configuration whose teacher-
  /// predicted QoE meets `sla.availability`.
  env::SliceConfig select_offline(atlas::math::Rng& rng) const;

  /// Predicted QoE of a configuration under the teacher (clamped to [0,1]).
  double predict_qoe(const env::SliceConfig& config) const;

  /// Online transfer loop against the metered `real` backend.
  OnlineTrace learn_online(env::BackendId real);

  std::size_t dataset_size() const noexcept { return dataset_size_; }

 private:
  env::SliceConfig select_with(const nn::Mlp& model, atlas::math::Rng& rng) const;

  env::EnvClient& service_;
  env::BackendId offline_env_;
  DldaOptions options_;
  std::optional<nn::Mlp> teacher_;
  std::size_t dataset_size_ = 0;
};

}  // namespace atlas::baselines
