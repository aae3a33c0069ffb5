#include "baselines/dlda.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.hpp"
#include "env/seed_plan.hpp"
#include "nn/optim.hpp"

namespace atlas::baselines {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

Dlda::Dlda(env::EnvClient& service, env::BackendId offline_env, DldaOptions options)
    : service_(service), offline_env_(offline_env), options_(std::move(options)) {}

DldaGrid Dlda::collect_grid(std::span<const double> thresholds_ms) const {
  const auto space = env::SliceConfig::space();
  const std::size_t g = std::max<std::size_t>(2, options_.grid_per_dim);
  const std::size_t dims = space.dim();
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) total *= g;

  // Paper §8.2: each dimension takes normalized values {0.0, 0.3, 0.6, 0.9}.
  std::vector<double> levels(g);
  for (std::size_t i = 0; i < g; ++i) {
    levels[i] = 0.9 * static_cast<double>(i) / static_cast<double>(g - 1);
  }

  DldaGrid grid;
  grid.configs.assign(total, Vec(dims, 0.0));
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kBaselineDldaGrid, total);
  std::vector<env::EnvQuery> batch(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    Vec u(dims);
    std::size_t rem = idx;
    for (std::size_t d = 0; d < dims; ++d) {
      u[d] = levels[rem % g];
      rem /= g;
    }
    grid.configs[idx] = u;
    batch[idx].backend = offline_env_;
    batch[idx].config = env::SliceConfig::from_vec(space.denormalize(u));
    batch[idx].workload = options_.workload;
    seeds.apply(batch[idx], 0, idx);  // the grid is one offline "iteration"
  }
  const std::vector<env::EpisodeResult> episodes = service_.run_batch(batch);
  grid.qoe.assign(thresholds_ms.size(), Vec(total, 0.0));
  for (std::size_t t = 0; t < thresholds_ms.size(); ++t) {
    for (std::size_t idx = 0; idx < total; ++idx) {
      grid.qoe[t][idx] = episodes[idx].qoe(thresholds_ms[t]);
    }
  }
  common::log_info("dlda: grid dataset of ", total, " configurations collected");
  return grid;
}

double Dlda::train_offline() {
  const double threshold = options_.sla.latency_threshold_ms;
  const DldaGrid grid = collect_grid({&threshold, 1});
  return train_offline(grid.configs, grid.qoe.front());
}

double Dlda::train_offline(const std::vector<Vec>& configs, const Vec& qoe) {
  if (configs.size() != qoe.size()) {
    throw std::invalid_argument("Dlda: need one QoE label per grid configuration");
  }
  const std::size_t dims = env::SliceConfig::space().dim();
  Rng rng(options_.seed);
  std::vector<std::size_t> sizes;
  sizes.push_back(dims);
  sizes.insert(sizes.end(), options_.hidden.begin(), options_.hidden.end());
  sizes.push_back(1);
  teacher_.emplace(sizes, rng);

  Matrix x(configs.size(), dims);
  for (std::size_t r = 0; r < configs.size(); ++r) x.set_row(r, configs[r]);
  nn::Adam opt(options_.teacher_lr);
  double loss = 0.0;
  for (std::size_t e = 0; e < options_.teacher_epochs; ++e) {
    loss = teacher_->train_epoch_mse(x, qoe, opt, 64, rng);
  }
  dataset_size_ = configs.size();
  common::log_info("dlda: teacher trained, final mse=", loss);
  return loss;
}

double Dlda::predict_qoe(const env::SliceConfig& config) const {
  if (!teacher_) throw std::logic_error("Dlda: train_offline() first");
  const auto space = env::SliceConfig::space();
  return std::clamp(teacher_->predict_scalar(space.normalize(config.to_vec())), 0.0, 1.0);
}

env::SliceConfig Dlda::select_with(const nn::Mlp& model, Rng& rng) const {
  const auto space = env::SliceConfig::space();
  Vec best;
  double best_usage = std::numeric_limits<double>::infinity();
  Vec fallback;
  double fallback_qoe = -1.0;
  for (std::size_t i = 0; i < options_.select_samples; ++i) {
    const Vec a = space.sample(rng);
    const double q = std::clamp(model.predict_scalar(space.normalize(a)), 0.0, 1.0);
    const double usage = env::SliceConfig::from_vec(a).resource_usage();
    if (q >= options_.sla.availability && usage < best_usage) {
      best_usage = usage;
      best = a;
    }
    if (q > fallback_qoe) {
      fallback_qoe = q;
      fallback = a;
    }
  }
  // If no candidate is predicted feasible, take the best-predicted-QoE one.
  return env::SliceConfig::from_vec(best.empty() ? fallback : best);
}

env::SliceConfig Dlda::select_offline(Rng& rng) const {
  if (!teacher_) throw std::logic_error("Dlda: train_offline() first");
  return select_with(*teacher_, rng);
}

OnlineTrace Dlda::learn_online(env::BackendId real) {
  if (!teacher_) throw std::logic_error("Dlda: train_offline() first");
  Rng rng(options_.seed * 31 + 7);
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kBaselineDldaOnline, 1);
  OnlineTrace trace;
  nn::Mlp student = *teacher_;  // transfer: student starts as the teacher
  nn::Adam opt(options_.student_lr);
  const auto space = env::SliceConfig::space();

  std::vector<Vec> online_x;
  Vec online_y;
  for (std::size_t iter = 0; iter < options_.online_iterations; ++iter) {
    const env::SliceConfig config = select_with(student, rng);
    env::Workload wl = options_.workload;
    wl.seed = seeds.seed(iter, 0);
    const double qoe =
        service_.measure_qoe(real, config, wl, options_.sla.latency_threshold_ms);
    trace.configs.push_back(config);
    trace.usage.push_back(config.resource_usage());
    trace.qoe.push_back(qoe);

    online_x.push_back(space.normalize(config.to_vec()));
    online_y.push_back(qoe);
    Matrix x(online_x.size(), space.dim());
    for (std::size_t r = 0; r < online_x.size(); ++r) x.set_row(r, online_x[r]);
    for (std::size_t e = 0; e < options_.student_epochs_per_step; ++e) {
      student.train_epoch_mse(x, online_y, opt, 16, rng);
    }
  }
  return trace;
}

}  // namespace atlas::baselines
