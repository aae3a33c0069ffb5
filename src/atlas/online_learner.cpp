#include "atlas/online_learner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "atlas/option_checks.hpp"
#include "bo/argmin.hpp"
#include "bo/scan_tile.hpp"
#include "common/log.hpp"
#include "env/seed_plan.hpp"
#include "nn/optim.hpp"

namespace atlas::core {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

LambdaBracket lambda_bracket(double lambda, std::size_t depth, double epsilon,
                             double availability) {
  LambdaBracket b{lambda, lambda};
  for (std::size_t d = 0; d < depth; ++d) {
    b.lo = dual_step(b.lo, 1.0, epsilon, availability);
    b.hi = dual_step(b.hi, 0.0, epsilon, availability);
  }
  return b;
}

OnlineLearner::OnlineLearner(const OfflinePolicy* policy, env::EnvClient& service,
                             env::BackendId simulator, env::BackendId real,
                             OnlineOptions options)
    : policy_(policy),
      service_(service),
      simulator_(simulator),
      real_(real),
      options_(std::move(options)),
      space_(env::SliceConfig::space()) {
  if (policy_ == nullptr && options_.model != OnlineModel::kGpWhole) {
    throw std::invalid_argument("OnlineLearner: an offline policy is required unless kGpWhole");
  }
  if (options_.candidates == 0) {
    throw std::invalid_argument("OnlineLearner: candidates must be > 0");
  }
  if (options_.offline_acceleration && options_.inner_updates > 0 && options_.candidates < 4) {
    throw std::invalid_argument(
        "OnlineLearner: offline acceleration scans candidates / 4 actions; need candidates >= 4");
  }
  check_dual("OnlineLearner", options_.epsilon, options_.sla);
  if (options_.acquisition == bo::AcquisitionKind::kCrgpUcb) {
    if (!(std::isfinite(options_.rho) && options_.rho > 0.0)) {
      throw std::invalid_argument("OnlineLearner: rho must be finite and > 0 for cRGP-UCB");
    }
    if (!(std::isfinite(options_.clip_b) && options_.clip_b >= 0.0)) {
      throw std::invalid_argument("OnlineLearner: clip_b must be finite and >= 0 for cRGP-UCB");
    }
  }
  check_workload("OnlineLearner", options_.workload);
}

double OnlineLearner::offline_qoe_estimate(const Vec& config_norm) const {
  if (policy_ == nullptr) return 0.0;  // kGpWhole: the online model carries everything
  const Vec in = OfflinePolicy::input(options_.workload.traffic,
                                      options_.sla.latency_threshold_ms, config_norm);
  return std::clamp(policy_->qoe_model->predict_at_mean(in), 0.0, 1.0);
}

OnlineResult OnlineLearner::learn() {
  Rng rng(options_.seed);
  OnlineResult result;

  // Residual models. The GP regresses the QoE difference G (Eq. 12); the BNN
  // variants exist for the Fig. 23 ablation.
  gp::GaussianProcess residual_gp(options_.gp);
  std::optional<nn::Bnn> residual_bnn;
  nn::Adadelta bnn_opt(1.0);
  if (options_.model == OnlineModel::kBnnResidual) {
    nn::BnnConfig cfg;
    cfg.sizes = {space_.dim(), 48, 48, 1};
    cfg.noise_sigma = 0.07;
    residual_bnn.emplace(cfg, rng);
  }
  // kBnnContinued keeps training the offline model itself; we fine-tune a
  // shared reference (the policy's Bnn is shared_ptr-owned, so mutating is
  // visible to our estimates — intended for this ablation).

  std::vector<Vec> obs_x;  // normalized configs of online observations
  Vec obs_g;               // residual targets (or whole QoE for kGpWhole,
                           // or real QoE for kBnnContinued)

  // Posterior of the online model at a normalized config.
  auto residual_posterior = [&](const Vec& xn) -> gp::Posterior {
    gp::Posterior p;
    switch (options_.model) {
      case OnlineModel::kGpResidual:
      case OnlineModel::kGpWhole:
        if (residual_gp.fitted()) {
          p = residual_gp.predict(xn);
        } else {
          p.mean = options_.model == OnlineModel::kGpWhole ? 0.5 : 0.0;
          p.std = 0.3;
        }
        break;
      case OnlineModel::kBnnResidual: {
        const auto ms = residual_bnn->predict(xn, 8, rng);
        p.mean = ms.mean;
        p.std = obs_x.empty() ? 0.3 : ms.std;
        break;
      }
      case OnlineModel::kBnnContinued:
        // The fine-tuned offline BNN already predicts the full QoE; there is
        // no separate residual, so its epistemic spread plays sigma's role.
        p.mean = 0.0;
        p.std = 0.05;
        break;
    }
    return p;
  };

  // Acquisition scans run one tile at a time (bo/scan_tile.hpp). The tile's
  // inputs are normalized configurations, the online model's input; the
  // offline BNN reads the same rows behind its (traffic, Y) prefix.
  bo::ScanTile tile(space_.dim(), space_.dim());
  Matrix offline_inputs(0, 2 + space_.dim());
  Vec tile_qs;                        // offline QoE estimate Q_s per candidate
  std::vector<gp::Posterior> tile_g;  // online-model posterior G per candidate

  // Samples the tile's candidates in RNG order, straight into the tile's
  // rows. kBnnResidual's Monte-Carlo posterior draws from the RNG too, so it
  // stays here, per candidate.
  auto sample_tile = [&] {
    offline_inputs.resize(tile.size(), offline_inputs.cols());
    tile_g.resize(tile.size());
    for (std::size_t k = 0; k < tile.size(); ++k) {
      Vec& a = tile.point(k);
      space_.sample(rng, a.data());
      space_.normalize(a.data(), tile.input(k));
      OfflinePolicy::input(options_.workload.traffic, options_.sla.latency_threshold_ms,
                           tile.input(k), space_.dim(),
                           offline_inputs.data() + k * offline_inputs.cols());
      if (options_.model == OnlineModel::kBnnResidual) {
        tile_g[k] = residual_posterior(tile.inputs.row(k));
      }
    }
  };
  // Scores the sampled tile without the RNG: Q_s through this iteration's
  // posterior-mean network (bit-identical to offline_qoe_estimate), and G
  // through one batched GP call.
  auto score_tile = [&](const std::optional<nn::BnnSample>& offline_net) {
    if (!offline_net) {
      tile_qs.assign(tile.size(), 0.0);  // kGpWhole: the online model carries everything
    } else {
      tile_qs = offline_net->predict_batch(offline_inputs);
      for (double& v : tile_qs) v = std::clamp(v, 0.0, 1.0);
    }
    if (options_.model == OnlineModel::kBnnResidual) return;  // sampled above
    if (residual_gp.fitted()) {
      tile_g = residual_gp.predict_batch(tile.inputs);
    } else {
      // A constant prior (unfitted GP, kBnnContinued), the same at every
      // candidate.
      std::fill(tile_g.begin(), tile_g.end(), residual_posterior(tile.inputs.row(0)));
    }
  };

  // An inner update's pool, sampled and scored before lambda is known: each
  // candidate's action a, its usage F(a) and its combined QoE estimate
  // clamp(Q_s(a) + G(a) mean). Every inner update has its own buffer.
  struct PoolCandidate {
    Vec a;
    double usage = 0.0;
    double q = 0.0;
  };
  using Pool = std::vector<PoolCandidate>;
  const bool accelerated = options_.offline_acceleration && options_.inner_updates > 0;
  const std::size_t inner_updates = accelerated ? options_.inner_updates : 0;
  std::vector<Pool> pools(inner_updates, Pool(options_.candidates / 4));
  auto score_pool = [&](Pool& pool, const std::optional<nn::BnnSample>& offline_net) {
    tile.scan(pool.size(), [&](std::size_t first) {
      sample_tile();
      score_tile(offline_net);
      for (std::size_t k = 0; k < tile.size(); ++k) {
        PoolCandidate& c = pool[first + k];
        c.a = tile.point(k);
        c.usage = env::SliceConfig::from_vec(c.a).resource_usage();
        c.q = std::clamp(tile_qs[k] + tile_g[k].mean, 0.0, 1.0);
      }
    });
  };

  double lambda = policy_ != nullptr ? policy_->final_lambda : 1.0;

  // The very first online action is the offline optimum when available (§8.3).
  Vec next_config = policy_ != nullptr ? policy_->best_config.to_vec() : space_.sample(rng);

  // Seed planning: the metered real stream and the simulator stream (one
  // residual episode + N inner-update episodes per iteration) draw from
  // their own domains; the simulator stream reproduces the historical
  // pre-incremented `seed * 32452843 + n` counter bit-identically.
  const env::SeedPlan plan(options_.seed);
  const env::SeedStream real_seeds = plan.stream(env::SeedDomain::kStage3RealOnline, 1);
  const env::SeedStream sim_seeds = plan.stream(env::SeedDomain::kStage3Sim, 1 + inner_updates);

  // bo::Argmin's rule by index: the first candidate of lowest Lagrangian
  // F(a) - lambda (Q(a) - E), NaN scores skipped. Throws like Argmin when
  // every score is NaN, which no lambda can change.
  auto greedy_pick = [&](const Pool& pool, double lam) {
    std::size_t best = pool.size();
    double best_score = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const double score = pool[i].usage - lam * (pool[i].q - options_.sla.availability);
      if (std::isnan(score)) continue;
      if (best == pool.size() || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    if (best == pool.size()) throw std::out_of_range("Argmin: nothing was offered");
    return best;
  };

  // An inner update's episode in flight: the pool index of its action and
  // the online model's posterior there.
  struct Flight {
    env::QueryHandle episode;
    std::size_t pick = 0;
    gp::Posterior g;
  };
  std::vector<Flight> flights(inner_updates);
  auto launch = [&](std::size_t iter, std::size_t m, std::size_t pick) {
    Flight& f = flights[m];
    const Vec& greedy = pools[m][pick].a;
    f.pick = pick;
    f.g = residual_posterior(space_.normalize(greedy));
    env::EnvQuery q;
    q.backend = simulator_;
    q.config = env::SliceConfig::from_vec(greedy);
    q.workload = options_.workload;
    sim_seeds.apply(q, iter, 1 + m);  // slot 0 is the residual episode
    f.episode = service_.submit(std::move(q));
  };
  // kBnnResidual's posterior at the greedy action draws from the RNG between
  // two pools, so it cannot be redrawn at a corrected action: that model
  // launches update n only once lambda_n is known.
  const std::size_t max_depth = options_.model == OnlineModel::kBnnResidual ? 0 : inner_updates;

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // ---- Apply the configuration to the real network -----------------------
    // The metered real-network episode and the simulator residual episode are
    // independent queries on different backends: submit both and overlap them
    // instead of serializing two blocking measure_qoe calls.
    const env::SliceConfig config = env::SliceConfig::from_vec(next_config);
    env::EnvQuery real_q;
    real_q.backend = real_;
    real_q.config = config;
    real_q.workload = options_.workload;
    real_seeds.apply(real_q, iter, 0);

    // ---- Residual observation (one offline simulator episode) --------------
    env::EnvQuery sim_q;
    sim_q.backend = simulator_;
    sim_q.config = config;
    sim_q.workload = options_.workload;
    sim_seeds.apply(sim_q, iter, 0);

    auto real_handle = service_.submit(std::move(real_q));
    auto sim_handle = service_.submit(std::move(sim_q));
    const double qoe_real = real_handle.get().qoe(options_.sla.latency_threshold_ms);
    const double qoe_sim = sim_handle.get().qoe(options_.sla.latency_threshold_ms);

    OnlineStep step;
    step.config = config;
    step.usage = config.resource_usage();
    step.qoe_real = qoe_real;
    step.qoe_sim = qoe_sim;
    step.lambda = lambda;

    // ---- Update the online model --------------------------------------------
    const Vec xn = space_.normalize(space_.clamp(next_config));
    obs_x.push_back(xn);
    switch (options_.model) {
      case OnlineModel::kGpResidual: {
        const double offline_est = offline_qoe_estimate(xn);
        obs_g.push_back(qoe_real - offline_est);
        break;
      }
      case OnlineModel::kGpWhole:
        obs_g.push_back(qoe_real);
        break;
      case OnlineModel::kBnnResidual:
        obs_g.push_back(qoe_real - offline_qoe_estimate(xn));
        break;
      case OnlineModel::kBnnContinued:
        obs_g.push_back(qoe_real);
        break;
    }
    {
      Matrix x(obs_x.size(), space_.dim());
      for (std::size_t r = 0; r < obs_x.size(); ++r) x.set_row(r, obs_x[r]);
      switch (options_.model) {
        case OnlineModel::kGpResidual:
        case OnlineModel::kGpWhole:
          residual_gp.fit(x, obs_g);
          break;
        case OnlineModel::kBnnResidual:
          residual_bnn->train(x, obs_g, 40, 16, bnn_opt, nullptr, rng);
          break;
        case OnlineModel::kBnnContinued: {
          // Fine-tune the offline BNN on the online (state, Y, a) -> QoE pairs.
          Matrix xi(obs_x.size(), 2 + space_.dim());
          for (std::size_t r = 0; r < obs_x.size(); ++r) {
            xi.set_row(r, OfflinePolicy::input(options_.workload.traffic,
                                               options_.sla.latency_threshold_ms, obs_x[r]));
          }
          policy_->qoe_model->train(xi, obs_g, 20, 16, bnn_opt, nullptr, rng);
          break;
        }
      }
    }

    // The posterior-mean offline network scores this iteration's scans. It is
    // built after the kBnnContinued fine-tune above and dropped at the end of
    // the iteration, so it always matches the current weights.
    std::optional<nn::BnnSample> offline_net;
    if (policy_ != nullptr) offline_net = policy_->qoe_model->mean_sample();

    // ---- Multiplier updates --------------------------------------------------
    if (accelerated) {
      // Offline acceleration (Eq. 15): N inner dual updates, each driven by an
      // actual augmented-simulator query at the currently-greedy action: the
      // argmin of the Lagrangian under the combined estimate
      // Q(a) = Q_s(a) + G(a) (Eq. 12).
      //
      // No pool depends on lambda, and update m's episode is fully determined
      // by its action and seed slot 1 + m. While update n waits for its
      // episode, lambda_m for m > n lies in lambda_bracket(lambda_n, m - n),
      // so once pool m's greedy action is the same at both ends its episode
      // launches on the service pool. Pools are scored and episodes launched
      // in order, stopping at the first uncertain update; a pool is scored
      // only after every earlier update has launched, which keeps the RNG
      // order of the pools' sampling. Each commit recomputes the pick with
      // the true lambda, and a pick that differs (rounding between the ends)
      // replaces its flight, so results never depend on the lookahead.
      std::size_t scored = 0;
      std::size_t launched = 0;
      try {
        for (std::size_t n = 0; n < inner_updates; ++n) {
          for (; launched < inner_updates; ++launched) {
            if (scored == launched) score_pool(pools[scored++], offline_net);
            const std::size_t depth = launched - n;
            if (depth > max_depth) break;
            const LambdaBracket b =
                lambda_bracket(lambda, depth, options_.epsilon, options_.sla.availability);
            const std::size_t pick = greedy_pick(pools[launched], b.lo);
            if (depth > 0 && greedy_pick(pools[launched], b.hi) != pick) break;
            launch(iter, launched, pick);
          }
          Flight& f = flights[n];  // launched at depth 0 at the latest
          if (const std::size_t pick = greedy_pick(pools[n], lambda); pick != f.pick) {
            f.episode.wait();
            launch(iter, n, pick);
          }
          const double qs = f.episode.get().qoe(options_.sla.latency_threshold_ms);
          lambda = dual_step(lambda, std::clamp(qs + f.g.mean, 0.0, 1.0), options_.epsilon,
                             options_.sla.availability);
        }
      } catch (...) {
        for (const Flight& f : flights) f.episode.wait();  // leave no episode running
        throw;
      }
    } else {
      // Single online update (the "No Offline Acc." ablation).
      lambda = dual_step(lambda, qoe_real, options_.epsilon, options_.sla.availability);
    }

    // ---- Select the next online action --------------------------------------
    double beta = 0.0;
    switch (options_.acquisition) {
      case bo::AcquisitionKind::kCrgpUcb:
        beta = bo::crgp_ucb_beta(iter + 1, options_.rho, options_.clip_b, rng);
        break;
      case bo::AcquisitionKind::kGpUcb:
        beta = bo::gp_ucb_beta(iter + 1, options_.candidates);
        break;
      case bo::AcquisitionKind::kUcb:
        beta = 4.0;
        break;
      default:
        break;
    }
    step.beta = beta;

    // Incumbent Lagrangian value for EI/PI.
    double incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.history.size(); ++i) {
      const auto& h = result.history[i];
      incumbent = std::min(incumbent,
                           h.usage - lambda * (h.qoe_real - options_.sla.availability));
    }
    incumbent = std::min(incumbent,
                         step.usage - lambda * (qoe_real - options_.sla.availability));

    // Maximizing scan: offer(-util) keeps the first of equal utilities.
    bo::Argmin argmin;
    tile.scan(options_.candidates, [&](std::size_t) {
      sample_tile();
      score_tile(offline_net);
      for (std::size_t k = 0; k < tile.size(); ++k) {
        const Vec& a = tile.point(k);
        const double usage = env::SliceConfig::from_vec(a).resource_usage();
        const double qs = tile_qs[k];
        const gp::Posterior& g = tile_g[k];
        double util = 0.0;
        switch (options_.acquisition) {
          case bo::AcquisitionKind::kEi: {
            const double mean_l =
                usage - lambda * (std::clamp(qs + g.mean, 0.0, 1.0) - options_.sla.availability);
            util = bo::expected_improvement(mean_l, lambda * g.std, incumbent);
            break;
          }
          case bo::AcquisitionKind::kPi: {
            const double mean_l =
                usage - lambda * (std::clamp(qs + g.mean, 0.0, 1.0) - options_.sla.availability);
            util = bo::probability_of_improvement(mean_l, lambda * g.std, incumbent);
            break;
          }
          default: {
            // UCB family (ours): optimistic QoE bound, clipped into [0, 1]
            // (paper §6.2: mu + sqrt(beta) sigma with Eq. 12's combined model).
            const double q_ucb =
                std::clamp(qs + g.mean + std::sqrt(std::max(0.0, beta)) * g.std, 0.0, 1.0);
            util = -(usage - lambda * (q_ucb - options_.sla.availability));
            break;
          }
        }
        argmin.offer(a, -util);
      }
    });
    next_config = argmin.best();

    result.history.push_back(step);
    if ((iter + 1) % 20 == 0) {
      common::log_info("stage3 iter ", iter + 1, "/", options_.iterations,
                       " qoe=", qoe_real, " usage=", step.usage, " lambda=", lambda);
    }
  }
  result.final_lambda = lambda;
  return result;
}

}  // namespace atlas::core
