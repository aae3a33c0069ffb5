#include "atlas/online_learner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
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

namespace {

/// Iteration `iter`'s exploration weight (0-based) under the options'
/// acquisition. Only cRGP-UCB draws it from the RNG.
double exploration_beta(const OnlineOptions& options, std::size_t iter, Rng& rng) {
  switch (options.acquisition) {
    case bo::AcquisitionKind::kCrgpUcb:
      return bo::crgp_ucb_beta(iter + 1, options.rho, options.clip_b, rng);
    case bo::AcquisitionKind::kGpUcb:
      return bo::gp_ucb_beta(iter + 1, options.candidates);
    case bo::AcquisitionKind::kUcb:
      return 4.0;
    default:
      return 0.0;
  }
}

/// Stage 3's candidates, stored in the order the stage's RNG draws them.
/// Round r belongs to iteration r: its inner updates' pools of `pool_size`
/// candidates, then its beta draw, then the candidates of its selection
/// scan. A candidate is one row of raw coordinates beside its usage F(a) and
/// its clamped offline estimate Q_s(a) through `offline_net` (Q_s = 0
/// without one: kGpWhole without a policy). Given a `draw` (kBnnResidual,
/// whose posterior reads the RNG), the online model's posterior drawn at the
/// candidate's normalized coordinates right after it is kept too. Nothing is
/// stored per candidate on the heap.
///
/// The stream holds two rounds, the current one and the next, and fills one
/// tile per step: at most ScanTile::kSize candidates, within one pool or
/// within the selection scan. A caller fills on demand, just before it reads
/// a pool or the selection scan, or ahead, a step at a time while it waits
/// for an episode. Both fill in the same order from the same RNG, so what
/// the stream holds does not depend on when it was filled.
class CandidateStream {
 public:
  /// `offline_net` is read at each fill, so it must outlive the stream.
  CandidateStream(const bo::BoxSpace& space, const OnlineOptions& options, std::size_t pools,
                  std::size_t pool_size, Rng& rng, const nn::BnnSample* offline_net,
                  std::function<gp::Posterior(const Vec&)> draw)
      : space_(space),
        options_(options),
        rng_(rng),
        offline_net_(offline_net),
        draw_(std::move(draw)),
        pool_size_(pool_size),
        selection_begin_(pools * pool_size),
        round_size_(selection_begin_ + options.candidates),
        offline_inputs_(0, 2 + space.dim()),
        normalized_(space.dim()) {
    for (Round& r : rounds_) {
      r.points.resize(round_size_ * space.dim());
      r.usage.resize(round_size_);
      r.offline_q.resize(round_size_);
      if (draw_) r.drawn.resize(round_size_);
    }
  }

  std::size_t selection_begin() const { return selection_begin_; }
  std::size_t round_size() const { return round_size_; }

  /// Fills one more tile toward the end of the round after the current one
  /// (or of the last round). Returns false when it is filled that far.
  bool fill_ahead() {
    return fill_tile(std::min(current_ + 2, options_.iterations) * round_size_);
  }
  /// Fills the current round through candidate `end` (exclusive).
  void fill_to(std::size_t end) {
    while (fill_tile(current_ * round_size_ + end)) {
    }
  }
  /// Moves on to the next round; the current round's storage goes to the
  /// round after that.
  void next_round() { ++current_; }

  // Candidate k of the current round, once filled.
  const double* point(std::size_t k) const { return round().points.data() + k * space_.dim(); }
  double usage(std::size_t k) const { return round().usage[k]; }
  double offline_q(std::size_t k) const { return round().offline_q[k]; }
  const gp::Posterior& drawn(std::size_t k) const { return round().drawn[k]; }
  /// The current round's beta, once its first selection candidate is filled.
  double beta() const { return round().beta; }

 private:
  struct Round {
    Vec points;  ///< round_size x dim raw coordinates, row-major
    Vec usage;
    Vec offline_q;
    std::vector<gp::Posterior> drawn;  ///< Only with a `draw`.
    double beta = 0.0;
  };

  const Round& round() const { return rounds_[current_ % 2]; }

  /// Fills the next tile, stopping at stream position `end` (round r's
  /// candidate k sits at r * round_size + k). Returns false at `end`.
  bool fill_tile(std::size_t end) {
    if (filled_ >= end) return false;
    const std::size_t r = filled_ / round_size_;
    const std::size_t first = filled_ % round_size_;
    Round& round = rounds_[r % 2];
    std::size_t stop = round_size_;
    if (first < selection_begin_) stop = (first / pool_size_ + 1) * pool_size_;
    if (first == selection_begin_) round.beta = exploration_beta(options_, r, rng_);
    const std::size_t n = std::min({bo::ScanTile::kSize, stop - first, end - filled_});
    const std::size_t dim = space_.dim();
    offline_inputs_.resize(n, offline_inputs_.cols());
    for (std::size_t k = 0; k < n; ++k) {
      double* a = round.points.data() + (first + k) * dim;
      space_.sample(rng_, a);
      space_.normalize(a, normalized_.data());
      OfflinePolicy::input(options_.workload.traffic, options_.sla.latency_threshold_ms,
                           normalized_.data(), dim,
                           offline_inputs_.data() + k * offline_inputs_.cols());
      round.usage[first + k] = env::SliceConfig::from_vec(a).resource_usage();
      if (draw_) round.drawn[first + k] = draw_(normalized_);
    }
    double* qs = round.offline_q.data() + first;
    if (offline_net_ == nullptr) {
      std::fill_n(qs, n, 0.0);
    } else {
      // Bit-identical to OnlineLearner::offline_qoe_estimate per candidate.
      const Vec predicted = offline_net_->predict_batch(offline_inputs_);
      for (std::size_t k = 0; k < n; ++k) qs[k] = std::clamp(predicted[k], 0.0, 1.0);
    }
    filled_ += n;
    return true;
  }

  const bo::BoxSpace& space_;
  const OnlineOptions& options_;
  Rng& rng_;
  const nn::BnnSample* offline_net_;
  std::function<gp::Posterior(const Vec&)> draw_;
  std::size_t pool_size_;
  std::size_t selection_begin_;
  std::size_t round_size_;
  std::array<Round, 2> rounds_;
  std::size_t current_ = 0;  ///< The round being read.
  std::size_t filled_ = 0;   ///< Stream position of the next candidate to fill.
  Matrix offline_inputs_;  ///< One tile's offline-BNN inputs.
  Vec normalized_;         ///< One candidate's normalized coordinates.
};

}  // namespace

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

  const bool accelerated = options_.offline_acceleration && options_.inner_updates > 0;
  const std::size_t inner_updates = accelerated ? options_.inner_updates : 0;
  const std::size_t pool_size = options_.candidates / 4;

  // The posterior-mean offline network Q_s reads. Only kBnnContinued
  // retrains the offline BNN, and it rebuilds this in place after each
  // fine-tune.
  std::optional<nn::BnnSample> offline_net;
  if (policy_ != nullptr) offline_net = policy_->qoe_model->mean_sample();

  double lambda = policy_ != nullptr ? policy_->final_lambda : 1.0;

  // The very first online action is the offline optimum when available (§8.3).
  Vec next_config = policy_ != nullptr ? policy_->best_config.to_vec() : space_.sample(rng);

  // Every later draw of the GP models comes from the candidate stream
  // (GaussianProcess::fit seeds its own generator), and their offline
  // network never changes, so their stream fills while episodes run, up to
  // one iteration ahead. The BNN models draw between rounds (training, and
  // kBnnResidual's posterior at each inner update's action), and a
  // kBnnContinued round's Q_s needs that iteration's fine-tune, so they fill
  // on demand only, at the points where they sample.
  CandidateStream stream(
      space_, options_, inner_updates, pool_size, rng, offline_net ? &*offline_net : nullptr,
      options_.model == OnlineModel::kBnnResidual
          ? std::function<gp::Posterior(const Vec&)>(residual_posterior)
          : nullptr);
  const bool run_ahead =
      options_.model == OnlineModel::kGpResidual || options_.model == OnlineModel::kGpWhole;
  // Blocks until `episode` completes, filling the stream meanwhile a tile at
  // a time when it runs ahead.
  auto wait_filling = [&](const env::QueryHandle& episode) {
    if (run_ahead) {
      while (!episode.ready() && stream.fill_ahead()) {
      }
    }
    episode.wait();
  };

  // The online model's posterior G over candidates [first, first + n) of the
  // current round, n at most one tile, into tile_g: one batched GP call, the
  // draws kept beside kBnnResidual's candidates, or a constant prior
  // (unfitted GP, kBnnContinued).
  Matrix tile_inputs(0, space_.dim());
  std::vector<gp::Posterior> tile_g;
  auto online_posterior = [&](std::size_t first, std::size_t n) {
    if (options_.model == OnlineModel::kBnnResidual) {
      tile_g.resize(n);
      for (std::size_t k = 0; k < n; ++k) tile_g[k] = stream.drawn(first + k);
      return;
    }
    tile_inputs.resize(n, space_.dim());
    for (std::size_t k = 0; k < n; ++k) {
      space_.normalize(stream.point(first + k), tile_inputs.data() + k * space_.dim());
    }
    if (residual_gp.fitted()) {
      tile_g = residual_gp.predict_batch(tile_inputs);
    } else {
      tile_g.assign(n, residual_posterior(tile_inputs.row(0)));
    }
  };

  // Inner update m's pool is the current round's candidates
  // [m * pool_size, (m + 1) * pool_size). Scoring it waits for the refit but
  // not for lambda: each candidate's combined estimate clamp(Q_s(a) + G(a)
  // mean) goes to pool_q.
  Vec pool_q(inner_updates * pool_size);
  auto score_pool = [&](std::size_t m) {
    const std::size_t end = (m + 1) * pool_size;
    stream.fill_to(end);
    for (std::size_t first = m * pool_size; first < end; first += bo::ScanTile::kSize) {
      const std::size_t n = std::min(bo::ScanTile::kSize, end - first);
      online_posterior(first, n);
      for (std::size_t k = 0; k < n; ++k) {
        pool_q[first + k] = std::clamp(stream.offline_q(first + k) + tile_g[k].mean, 0.0, 1.0);
      }
    }
  };

  // Seed planning: the metered real stream and the simulator stream (one
  // residual episode + N inner-update episodes per iteration) draw from
  // their own domains; the simulator stream reproduces the historical
  // pre-incremented `seed * 32452843 + n` counter bit-identically.
  const env::SeedPlan plan(options_.seed);
  const env::SeedStream real_seeds = plan.stream(env::SeedDomain::kStage3RealOnline, 1);
  const env::SeedStream sim_seeds = plan.stream(env::SeedDomain::kStage3Sim, 1 + inner_updates);

  // The pool index of pool m's lowest Lagrangian F(a) - lambda (Q(a) - E).
  // Throws like bo::Argmin when every score is NaN, which no lambda can
  // change.
  auto greedy_pick = [&](std::size_t m, double lam) {
    const std::size_t first = m * pool_size;
    bo::ArgminIndex argmin;
    for (std::size_t i = 0; i < pool_size; ++i) {
      argmin.offer(i, stream.usage(first + i) -
                          lam * (pool_q[first + i] - options_.sla.availability));
    }
    return argmin.best();
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
    const double* greedy = stream.point(m * pool_size + pick);
    Vec xn(space_.dim());
    space_.normalize(greedy, xn.data());
    f.pick = pick;
    f.g = residual_posterior(xn);
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
    wait_filling(real_handle);
    const double qoe_real = real_handle.get().qoe(options_.sla.latency_threshold_ms);
    wait_filling(sim_handle);
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
          *offline_net = policy_->qoe_model->mean_sample();  // this round's Q_s reads it
          break;
        }
      }
    }

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
      // order of pools sampled on demand. Each commit recomputes the pick
      // with the true lambda, and a pick that differs (rounding between the
      // ends) replaces its flight, so results never depend on the lookahead.
      std::size_t scored = 0;
      std::size_t launched = 0;
      try {
        for (std::size_t n = 0; n < inner_updates; ++n) {
          for (; launched < inner_updates; ++launched) {
            if (scored == launched) score_pool(scored++);
            const std::size_t depth = launched - n;
            if (depth > max_depth) break;
            const LambdaBracket b =
                lambda_bracket(lambda, depth, options_.epsilon, options_.sla.availability);
            const std::size_t pick = greedy_pick(launched, b.lo);
            if (depth > 0 && greedy_pick(launched, b.hi) != pick) break;
            launch(iter, launched, pick);
          }
          Flight& f = flights[n];  // launched at depth 0 at the latest
          if (const std::size_t pick = greedy_pick(n, lambda); pick != f.pick) {
            wait_filling(f.episode);
            launch(iter, n, pick);
          }
          wait_filling(f.episode);
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
    stream.fill_to(stream.round_size());
    const double beta = stream.beta();
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

    // Maximizing scan, one tile at a time: offer(-util) keeps the first of
    // equal utilities.
    bo::ArgminIndex argmin;
    for (std::size_t first = stream.selection_begin(); first < stream.round_size();
         first += bo::ScanTile::kSize) {
      const std::size_t n = std::min(bo::ScanTile::kSize, stream.round_size() - first);
      online_posterior(first, n);
      for (std::size_t k = 0; k < n; ++k) {
        const double usage = stream.usage(first + k);
        const double qs = stream.offline_q(first + k);
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
        argmin.offer(first + k, -util);
      }
    }
    const double* best = stream.point(argmin.best());
    next_config.assign(best, best + space_.dim());
    stream.next_round();

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
