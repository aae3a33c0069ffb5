#include "atlas/calibrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "atlas/option_checks.hpp"
#include "bo/acquisition.hpp"
#include "bo/argmin.hpp"
#include "bo/gp_bo.hpp"
#include "bo/scan_tile.hpp"
#include "common/log.hpp"
#include "env/seed_plan.hpp"
#include "math/halton.hpp"
#include "nn/optim.hpp"

namespace atlas::core {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

namespace {

CalibrationOptions checked(CalibrationOptions options) {
  if (options.candidates == 0) throw std::invalid_argument("SimCalibrator: candidates must be > 0");
  if (options.parallel == 0) throw std::invalid_argument("SimCalibrator: parallel must be > 0");
  if (!(std::isfinite(options.ball_radius) && options.ball_radius > 0.0)) {
    throw std::invalid_argument("SimCalibrator: ball_radius must be finite and > 0");
  }
  if (!std::isfinite(options.alpha)) {
    throw std::invalid_argument("SimCalibrator: alpha must be finite");
  }
  check_workload("SimCalibrator", options.workload);
  return options;
}

}  // namespace

SimCalibrator::SimCalibrator(env::EnvClient& service, env::BackendId real,
                             CalibrationOptions options)
    : service_(service),
      real_(real),
      options_(checked(std::move(options))),
      sim_(service.add_simulator(env::SimParams::defaults(), "stage1-sim")),
      space_(env::SimParams::space()) {
  if (options_.bnn.sizes.empty()) {
    options_.bnn.sizes = {space_.dim(), 64, 64, 1};
    options_.bnn.noise_sigma = 0.1;
  }
  d_real_ = collect_real_latencies();
}

Vec SimCalibrator::collect_real_latencies() const {
  // The online collection D_r: slice performance logged from the deployed
  // configuration (full resources), exactly the paper's minimal-effort
  // logging assumption (§4.1, footnote 3). Metered by the service as online
  // interactions, with seeds from their own domain.
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kStage1RealCollectOnline, 1);
  Vec all;
  for (std::size_t e = 0; e < std::max<std::size_t>(1, options_.real_episodes); ++e) {
    env::Workload wl = options_.workload;
    wl.seed = seeds.seed(e, 0);
    const auto result = service_.run(real_, env::SliceConfig{}, wl);
    all.insert(all.end(), result.latencies_ms.begin(), result.latencies_ms.end());
  }
  return all;
}

double SimCalibrator::discrepancy_from(const env::EpisodeResult& episode) const {
  if (episode.latencies_ms.empty()) return math::kl_discrete({1.0}, {1.0}) + 10.0;
  return math::kl_divergence(d_real_, episode.latencies_ms, options_.kl);
}

double SimCalibrator::discrepancy_of(const env::SimParams& params, std::uint64_t seed) const {
  env::EnvQuery q;
  q.backend = sim_;
  q.workload = options_.workload;
  q.workload.seed = seed;
  q.sim_params = params;
  return discrepancy_from(service_.run(q));
}

CalibrationResult SimCalibrator::calibrate() {
  Rng rng(options_.seed);
  const env::SeedPlan plan(options_.seed);
  const env::SimParams original = env::SimParams::defaults();
  const Vec x_hat = original.to_vec();
  // Continual recalibration searches around the previous optimum; the
  // explainability constraint of Eq. 2 stays anchored at x_hat.
  const Vec center =
      options_.search_center ? options_.search_center->to_vec() : x_hat;

  math::HaltonSequence halton(space_.dim(), rng);
  const bo::BoxSpace::Ball ball = space_.ball(center, options_.ball_radius);
  // Writes a candidate's raw parameters to x and their normalized
  // coordinates (the surrogate's input) to u.
  auto sample_candidate = [&](Rng& r, double* x, double* u) {
    if (options_.sampler == CandidateSampler::kHalton) {
      // Low-discrepancy draw mapped into the box; rejection keeps it inside
      // the parameter ball (falls back to a uniform ball sample).
      for (int t = 0; t < 16; ++t) {
        halton.next(u);
        space_.denormalize(u, x);
        space_.normalize(x, u);
        if (space_.normalized_distance(u, ball.center.data()) <= ball.radius) return;
      }
    }
    space_.sample_in_ball(ball, r, x, u);
  };
  auto new_candidate = [&](Rng& r) {
    Vec x(space_.dim());
    Vec u(space_.dim());
    sample_candidate(r, x.data(), u.data());
    return x;
  };
  // The distance term of the weighted objective reads x_hat normalized.
  const Vec x_hat_norm = space_.normalize(x_hat);

  CalibrationResult result;
  result.original_kl =
      discrepancy_of(original, plan.episode_seed(env::SeedDomain::kStage1Reference, 0, 0, 1));

  // Training set in normalized coordinates; targets are raw KL values.
  std::vector<Vec> xs_norm;
  Vec ys;

  nn::Bnn bnn(options_.bnn, rng);
  nn::Adadelta opt(1.0);
  nn::StepLr sched(opt, 1, 0.999);

  bo::GpBoOptions gp_opts;
  gp_opts.acquisition = bo::AcquisitionKind::kEi;
  gp_opts.init_samples = options_.init_iterations;
  gp_opts.candidates = options_.candidates;
  bo::GpBoMinimizer gp_bo(space_, gp_opts);

  const bool use_gp = options_.surrogate == CalibratorSurrogate::kGpEi;
  const std::size_t batch = use_gp ? 1 : options_.parallel;
  bo::ScanTile tile(space_.dim(), space_.dim());

  double best_weighted = std::numeric_limits<double>::infinity();

  // The stream reproduces the historical `seed * 104729 + query_counter`
  // sequence (every iteration consumed exactly `batch` seeds).
  const env::SeedStream seeds = plan.stream(env::SeedDomain::kStage1Query, batch);

  auto evaluate_batch = [&](const std::vector<Vec>& queries, std::size_t iter) {
    std::vector<env::EnvQuery> batch_q(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      batch_q[i].backend = sim_;
      batch_q[i].workload = options_.workload;
      seeds.apply(batch_q[i], iter, i);
      batch_q[i].sim_params = env::SimParams::from_vec(queries[i]);
    }
    const auto episodes = service_.run_batch(batch_q);
    std::vector<double> kls(queries.size(), 0.0);
    for (std::size_t i = 0; i < episodes.size(); ++i) kls[i] = discrepancy_from(episodes[i]);
    return kls;
  };

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // ---- Select this iteration's queries -----------------------------------
    std::vector<Vec> queries;
    if (use_gp) {
      queries.push_back(gp_bo.observations() < options_.init_iterations
                            ? new_candidate(rng)
                            : space_.clamp(gp_bo.ask(rng)));
    } else if (iter < options_.init_iterations) {
      for (std::size_t q = 0; q < batch; ++q) {
        queries.push_back(new_candidate(rng));
      }
    } else {
      // Parallel Thompson sampling: each parallel query draws ONE frozen
      // network from the BNN posterior and minimizes the weighted
      // discrepancy estimate over a fresh candidate set (Alg. 1, lines 3-5),
      // scored one tile at a time. Each candidate is sampled straight into
      // the tile, and its distance to x_hat read from its normalized row.
      for (std::size_t q = 0; q < batch; ++q) {
        const nn::BnnSample draw = bnn.thompson(rng);
        bo::Argmin argmin;
        tile.scan(options_.candidates, [&](std::size_t) {
          for (std::size_t k = 0; k < tile.size(); ++k) {
            sample_candidate(rng, tile.point(k).data(), tile.input(k));
          }
          const Vec est_kl = draw.predict_batch(tile.inputs);
          for (std::size_t k = 0; k < tile.size(); ++k) {
            const double distance = space_.normalized_distance(tile.input(k), x_hat_norm.data());
            argmin.offer(tile.point(k), est_kl[k] + options_.alpha * distance);
          }
        });
        queries.push_back(argmin.best());
      }
    }

    // ---- Query the simulator (offline, parallel) ---------------------------
    const std::vector<double> kls = evaluate_batch(queries, iter);

    // ---- Record + bookkeeping ----------------------------------------------
    double iter_weighted = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      CalibrationStep step;
      step.params = env::SimParams::from_vec(queries[q]);
      step.kl = kls[q];
      step.distance = space_.distance(queries[q], x_hat);
      step.weighted = step.kl + options_.alpha * step.distance;
      iter_weighted += step.weighted;
      if (step.weighted < best_weighted) {
        best_weighted = step.weighted;
        result.best_params = step.params;
        result.best_kl = step.kl;
        result.best_distance = step.distance;
        result.best_weighted = step.weighted;
      }
      result.history.push_back(step);
      xs_norm.push_back(space_.normalize(queries[q]));
      ys.push_back(kls[q]);
      if (use_gp) gp_bo.tell(queries[q], kls[q]);
    }
    result.avg_weighted_per_iter.push_back(iter_weighted /
                                           static_cast<double>(queries.size()));

    // ---- Update the surrogate ----------------------------------------------
    if (!use_gp) {
      Matrix x(xs_norm.size(), space_.dim());
      for (std::size_t r = 0; r < xs_norm.size(); ++r) x.set_row(r, xs_norm[r]);
      bnn.train(x, ys, options_.train_epochs, 64, opt, &sched, rng);
    }
    if ((iter + 1) % 25 == 0) {
      common::log_info("stage1 iter ", iter + 1, "/", options_.iterations,
                       " best weighted=", result.best_weighted, " kl=", result.best_kl,
                       " dist=", result.best_distance);
    }
  }
  return result;
}

}  // namespace atlas::core
