#include "replay.hpp"

#include <algorithm>
#include <optional>

#include "env/sim_params.hpp"
#include "env/slice_config.hpp"
#include "gp/gaussian_process.hpp"
#include "nn/bnn.hpp"
#include "nn/optim.hpp"
#include "probe.hpp"

namespace pipebench {

namespace {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;
namespace core = atlas::core;
namespace nn = atlas::nn;

/// Keeps replayed predictions observable so the calls are not elided.
volatile double g_sink = 0.0;

/// Adds the driver-thread CPU spent inside `fn` to `slot`.
template <typename Fn>
void timed(double& slot, Fn&& fn) {
  const std::uint64_t t0 = thread_cpu_ns();
  fn();
  slot += 1e-9 * static_cast<double>(thread_cpu_ns() - t0);
}

Matrix rows(const std::vector<Vec>& xs, std::size_t n) {
  Matrix x(n, xs.empty() ? 0 : xs[0].size());
  for (std::size_t r = 0; r < n; ++r) x.set_row(r, xs[r]);
  return x;
}

/// One BNN Thompson-sampling stage (1 or 2): per iteration, `parallel`
/// draws each scoring `candidates` sampled points, then one training pass
/// on the dataset the stage had after that iteration.
template <typename Sample, typename Input>
ReplayTimes replay_thompson_stage(nn::BnnConfig config, std::size_t iterations,
                                  std::size_t init_iterations, std::size_t parallel,
                                  std::size_t candidates, std::size_t epochs,
                                  const std::vector<Vec>& xs, const Vec& ys, Sample sample,
                                  Input input, std::uint64_t seed) {
  ReplayTimes t;
  Rng rng(seed);
  nn::Bnn bnn(std::move(config), rng);
  nn::Adadelta opt(1.0);
  nn::StepLr sched(opt, 1, 0.999);
  const std::size_t batch = std::max<std::size_t>(1, parallel);
  std::vector<Vec> cands(candidates);
  std::vector<Vec> inputs(candidates);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    if (iter < init_iterations) {
      timed(t.bo_sample_s, [&] {
        for (std::size_t q = 0; q < batch; ++q) cands[0] = sample(rng);
      });
    } else {
      for (std::size_t q = 0; q < batch; ++q) {
        std::optional<nn::BnnSample> draw;
        timed(t.thompson_scan_s, [&] { draw.emplace(bnn.thompson(rng)); });
        timed(t.bo_sample_s, [&] {
          for (auto& c : cands) c = sample(rng);
        });
        for (std::size_t c = 0; c < candidates; ++c) inputs[c] = input(cands[c]);
        double sink = 0.0;
        timed(t.thompson_scan_s, [&] {
          for (const Vec& in : inputs) sink += draw->predict(in);
        });
        g_sink = sink;
      }
    }
    const std::size_t n = std::min(xs.size(), (iter + 1) * batch);
    if (n == 0) continue;
    const Matrix x = rows(xs, n);
    const Vec y(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(n));
    timed(t.bnn_train_s, [&] { bnn.train(x, y, epochs, 64, opt, &sched, rng); });
  }
  return t;
}

ReplayTimes replay_stage1(const core::CalibrationOptions& o, const core::CalibrationResult& r) {
  const auto space = atlas::env::SimParams::space();
  nn::BnnConfig config = o.bnn;
  if (config.sizes.empty()) {
    config.sizes = {space.dim(), 64, 64, 1};
    config.noise_sigma = 0.1;
  }
  std::vector<Vec> xs;
  Vec ys;
  for (const core::CalibrationStep& step : r.history) {
    xs.push_back(space.normalize(step.params.to_vec()));
    ys.push_back(step.kl);
  }
  const Vec center = o.search_center ? o.search_center->to_vec()
                                     : atlas::env::SimParams::defaults().to_vec();
  return replay_thompson_stage(
      config, o.iterations, o.init_iterations, o.parallel, o.candidates, o.train_epochs, xs,
      ys, [&](Rng& rng) { return space.sample_in_ball(center, o.ball_radius, rng); },
      [&](const Vec& x) { return space.normalize(x); }, o.seed);
}

ReplayTimes replay_stage2(const core::OfflineOptions& o, const core::OfflineResult& r) {
  const auto space = atlas::env::SliceConfig::space();
  nn::BnnConfig config = o.bnn;
  if (config.sizes.empty()) {
    config.sizes = {2 + space.dim(), 64, 64, 1};
    config.noise_sigma = 0.07;
  }
  auto input = [&](const Vec& raw) {
    return core::OfflinePolicy::input(o.workload.traffic, o.sla.latency_threshold_ms,
                                      space.normalize(raw));
  };
  std::vector<Vec> xs;
  Vec ys;
  for (const core::OfflineStep& step : r.history) {
    xs.push_back(input(step.config.to_vec()));
    ys.push_back(step.qoe);
  }
  return replay_thompson_stage(
      config, o.iterations, o.init_iterations, o.parallel, o.candidates, o.train_epochs, xs,
      ys, [&](Rng& rng) { return space.sample(rng); }, input, o.seed);
}

/// Stage 3 (GP residual, offline acceleration): per iteration one GP fit on
/// every observation so far, then the inner updates' and the selection
/// scan's candidates, each scored by the offline BNN mean plus the GP.
ReplayTimes replay_stage3(const core::OnlineOptions& o, const core::OnlineResult& r,
                          const core::OfflinePolicy& policy) {
  ReplayTimes t;
  const auto space = atlas::env::SliceConfig::space();
  Rng rng(o.seed);
  auto offline_input = [&](const Vec& xn) {
    return core::OfflinePolicy::input(o.workload.traffic, o.sla.latency_threshold_ms, xn);
  };
  std::vector<Vec> obs_x;
  Vec obs_g;
  for (const core::OnlineStep& step : r.history) {
    const Vec xn = space.normalize(space.clamp(step.config.to_vec()));
    obs_x.push_back(xn);
    obs_g.push_back(step.qoe_real -
                    std::clamp(policy.qoe_model->predict_at_mean(offline_input(xn)), 0.0, 1.0));
  }
  const bool accelerated = o.offline_acceleration && o.inner_updates > 0;
  const std::size_t per_iter =
      o.candidates + (accelerated ? o.inner_updates * (o.candidates / 4) : 0);
  std::vector<Vec> cands(per_iter);
  std::vector<Vec> norm(per_iter);
  std::vector<Vec> inputs(per_iter);
  for (std::size_t iter = 0; iter < obs_x.size(); ++iter) {
    atlas::gp::GaussianProcess gp(o.gp);
    const Matrix x = rows(obs_x, iter + 1);
    const Vec y(obs_g.begin(), obs_g.begin() + static_cast<std::ptrdiff_t>(iter + 1));
    timed(t.gp_fit_s, [&] { gp.fit(x, y); });
    timed(t.bo_sample_s, [&] {
      for (auto& c : cands) c = space.sample(rng);
    });
    for (std::size_t c = 0; c < per_iter; ++c) {
      norm[c] = space.normalize(cands[c]);
      inputs[c] = offline_input(norm[c]);
    }
    double sink = 0.0;
    timed(t.predict_mean_s, [&] {
      for (const Vec& in : inputs) sink += policy.qoe_model->predict_at_mean(in);
    });
    timed(t.gp_predict_s, [&] {
      for (const Vec& xn : norm) sink += gp.predict(xn).mean;
    });
    g_sink = sink;
  }
  return t;
}

}  // namespace

ReplayTimes& ReplayTimes::operator+=(const ReplayTimes& o) {
  bnn_train_s += o.bnn_train_s;
  thompson_scan_s += o.thompson_scan_s;
  predict_mean_s += o.predict_mean_s;
  gp_fit_s += o.gp_fit_s;
  gp_predict_s += o.gp_predict_s;
  bo_sample_s += o.bo_sample_s;
  return *this;
}

std::array<ReplayTimes, 3> replay_surrogate(const core::PipelineOptions& options,
                                            const core::PipelineResult& result) {
  std::array<ReplayTimes, 3> out{};
  if (!result.calibration.history.empty()) {
    out[0] = replay_stage1(options.stage1, result.calibration);
  }
  if (!result.offline.history.empty()) out[1] = replay_stage2(options.stage2, result.offline);
  if (!result.online.history.empty() && result.offline.policy.qoe_model != nullptr) {
    out[2] = replay_stage3(options.stage3, result.online, result.offline.policy);
  }
  return out;
}

}  // namespace pipebench
