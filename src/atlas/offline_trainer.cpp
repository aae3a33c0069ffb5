#include "atlas/offline_trainer.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "atlas/option_checks.hpp"
#include "bo/argmin.hpp"
#include "bo/scan_tile.hpp"
#include "common/log.hpp"
#include "env/seed_plan.hpp"
#include "gp/gaussian_process.hpp"
#include "nn/optim.hpp"

namespace atlas::core {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

double dual_step(double lambda, double qoe, double epsilon, double availability) {
  return std::max(0.0, lambda - epsilon * (qoe - availability));
}

math::Vec OfflinePolicy::input(int traffic, double threshold_ms, const Vec& config_norm) {
  Vec x(2 + config_norm.size());
  input(traffic, threshold_ms, config_norm.data(), config_norm.size(), x.data());
  return x;
}

void OfflinePolicy::input(int traffic, double threshold_ms, const double* config_norm,
                          std::size_t dim, double* row) {
  row[0] = static_cast<double>(traffic) / 4.0;
  row[1] = threshold_ms / 600.0;
  std::copy(config_norm, config_norm + dim, row + 2);
}

double OfflinePolicy::predict_qoe(const env::SliceConfig& config) const {
  const auto space = env::SliceConfig::space();
  const Vec in = input(traffic, sla.latency_threshold_ms, space.normalize(config.to_vec()));
  return std::clamp(qoe_model->predict_at_mean(in), 0.0, 1.0);
}

OfflineTrainer::OfflineTrainer(env::EnvClient& service, env::BackendId simulator,
                               OfflineOptions options)
    : service_(service),
      simulator_(simulator),
      options_(std::move(options)),
      space_(env::SliceConfig::space()) {
  if (options_.candidates == 0) {
    throw std::invalid_argument("OfflineTrainer: candidates must be > 0");
  }
  if (options_.parallel == 0) {
    throw std::invalid_argument("OfflineTrainer: parallel must be > 0");
  }
  check_dual("OfflineTrainer", options_.epsilon, options_.sla);
  check_workload("OfflineTrainer", options_.workload);
  if (options_.bnn.sizes.empty()) {
    options_.bnn.sizes = {2 + space_.dim(), 64, 64, 1};
    options_.bnn.noise_sigma = 0.07;  // QoE estimates carry ~0.02-0.05 sampling noise
  }
}

OfflineResult OfflineTrainer::train() {
  Rng rng(options_.seed);
  OfflineResult result;
  result.policy.sla = options_.sla;
  result.policy.traffic = options_.workload.traffic;

  auto bnn = std::make_shared<nn::Bnn>(options_.bnn, rng);
  nn::Adadelta opt(1.0);
  nn::StepLr sched(opt, 1, 0.999);
  gp::GaussianProcess gp;  // used by the GP surrogate variants

  std::vector<Vec> xs;  // surrogate inputs
  Vec ys;               // measured QoE

  const bool use_gp = options_.surrogate != OfflineSurrogate::kBnnPts;

  // Experience replay: previous transitions pre-seed the dataset (§10).
  for (const auto& [config, qoe] : options_.replay) {
    xs.push_back(OfflinePolicy::input(options_.workload.traffic,
                                      options_.sla.latency_threshold_ms,
                                      space_.normalize(config.clamped().to_vec())));
    ys.push_back(qoe);
  }
  const std::size_t batch = use_gp ? 1 : options_.parallel;

  double lambda = 0.0;
  double best_score = std::numeric_limits<double>::infinity();

  // Seed planning (env/seed_plan.hpp): the stream reproduces the historical
  // `seed * 15485863 + query_counter` sequence bit-identically
  // (iteration * batch + slot).
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kStage2Query, batch);

  auto surrogate_input = [&](const Vec& config_raw) {
    return OfflinePolicy::input(options_.workload.traffic, options_.sla.latency_threshold_ms,
                                space_.normalize(config_raw));
  };

  // Overlapped querying: each selected configuration is submitted the moment
  // it is chosen, so episode execution on the service pool overlaps the
  // remaining acquisition work (Thompson draws, candidate scans) instead of
  // blocking on a whole-batch run_batch after selection finishes.
  std::vector<env::QueryHandle> handles;
  auto submit_query = [&](const Vec& config_raw, std::size_t iter, std::size_t slot) {
    env::EnvQuery q;
    q.backend = simulator_;
    q.config = env::SliceConfig::from_vec(config_raw);
    q.workload = options_.workload;
    seeds.apply(q, iter, slot);
    handles.push_back(service_.submit(std::move(q)));
  };

  // Acquisition scans run one tile at a time (bo/scan_tile.hpp): sample the
  // tile's candidates in RNG order straight into the tile, score them with
  // one surrogate call, then offer them in candidate order.
  bo::ScanTile tile(space_.dim(), 2 + space_.dim());
  Vec an(space_.dim());  // one candidate's normalized coordinates
  auto sample_tile = [&] {
    for (std::size_t k = 0; k < tile.size(); ++k) {
      Vec& a = tile.point(k);
      space_.sample(rng, a.data());
      space_.normalize(a.data(), an.data());
      OfflinePolicy::input(options_.workload.traffic, options_.sla.latency_threshold_ms,
                           an.data(), an.size(), tile.input(k));
    }
  };

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // ---- Select queries -----------------------------------------------------
    std::vector<Vec> queries;
    if (iter < options_.init_iterations) {
      for (std::size_t q = 0; q < batch; ++q) {
        queries.push_back(space_.sample(rng));
        submit_query(queries.back(), iter, q);
      }
    } else if (!use_gp) {
      // Parallel Thompson sampling over the BNN QoE model: minimize the
      // Lagrangian L = F(a) - lambda (Qhat(a) - E) per draw (Alg. 2).
      for (std::size_t q = 0; q < batch; ++q) {
        const nn::BnnSample draw = bnn->thompson(rng);
        bo::Argmin argmin;
        tile.scan(options_.candidates, [&](std::size_t) {
          sample_tile();
          const Vec q_hat = draw.predict_batch(tile.inputs);
          for (std::size_t k = 0; k < tile.size(); ++k) {
            const Vec& a = tile.point(k);
            const double usage = env::SliceConfig::from_vec(a).resource_usage();
            const double lagrangian =
                usage - lambda * (std::clamp(q_hat[k], 0.0, 1.0) - options_.sla.availability);
            argmin.offer(a, lagrangian);
          }
        });
        queries.push_back(argmin.best());
        submit_query(argmin.best(), iter, q);  // episode q runs while draw q+1 scans candidates
      }
    } else {
      // GP surrogate over QoE; acquisition evaluated on the Lagrangian whose
      // only random part is lambda * Q (so sigma_L = lambda * sigma_Q).
      Matrix x(xs.size(), xs.empty() ? 0 : xs[0].size());
      for (std::size_t r = 0; r < xs.size(); ++r) x.set_row(r, xs[r]);
      gp.fit(x, ys);
      double incumbent = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const double usage =
            env::SliceConfig::from_vec(space_.denormalize(
                                           Vec(xs[i].begin() + 2, xs[i].end())))
                .resource_usage();
        incumbent = std::min(incumbent, usage - lambda * (ys[i] - options_.sla.availability));
      }
      // Maximizing scan: offer(-util) keeps the first of equal utilities.
      bo::Argmin argmin;
      const double beta = bo::gp_ucb_beta(iter + 1, options_.candidates);
      tile.scan(options_.candidates, [&](std::size_t) {
        sample_tile();
        const auto post = gp.predict_batch(tile.inputs);
        for (std::size_t k = 0; k < tile.size(); ++k) {
          const Vec& a = tile.point(k);
          const double usage = env::SliceConfig::from_vec(a).resource_usage();
          const double mean_l = usage - lambda * (post[k].mean - options_.sla.availability);
          const double std_l = lambda * post[k].std;
          double util = 0.0;
          switch (options_.surrogate) {
            case OfflineSurrogate::kGpEi:
              util = bo::expected_improvement(mean_l, std_l, incumbent);
              break;
            case OfflineSurrogate::kGpPi:
              util = bo::probability_of_improvement(mean_l, std_l, incumbent);
              break;
            default:
              util = -bo::lower_confidence_bound(mean_l, std_l, beta);
              break;
          }
          argmin.offer(a, -util);
        }
      });
      queries.push_back(argmin.best());
      submit_query(argmin.best(), iter, 0);
    }

    // ---- Harvest the augmented-simulator episodes (submitted above) ---------
    std::vector<double> qoes(handles.size());
    for (std::size_t q = 0; q < handles.size(); ++q) {
      qoes[q] = handles[q].get().qoe(options_.sla.latency_threshold_ms);
    }
    handles.clear();

    // ---- Record, update dual multiplier, track incumbent --------------------
    double iter_usage = 0.0;
    double iter_qoe = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      OfflineStep step;
      step.config = env::SliceConfig::from_vec(queries[q]);
      step.usage = step.config.resource_usage();
      step.qoe = qoes[q];
      step.lambda = lambda;
      iter_usage += step.usage;
      iter_qoe += step.qoe;
      result.history.push_back(step);
      xs.push_back(surrogate_input(queries[q]));
      ys.push_back(qoes[q]);
      // Incumbent: feasible configurations ranked by usage; infeasible ones
      // by constraint violation (so early iterations still carry a policy).
      const double score = step.qoe >= options_.sla.availability
                               ? step.usage
                               : 1.0 + (options_.sla.availability - step.qoe);
      if (score < best_score) {
        best_score = score;
        result.policy.best_config = step.config;
        result.policy.best_usage = step.usage;
        result.policy.best_qoe = step.qoe;
      }
    }
    iter_usage /= static_cast<double>(queries.size());
    iter_qoe /= static_cast<double>(queries.size());
    result.trace.avg_usage.push_back(iter_usage);
    result.trace.avg_qoe.push_back(iter_qoe);

    // Dual update from the batch average (Alg. 2, Eq. 9).
    lambda = dual_step(lambda, iter_qoe, options_.epsilon, options_.sla.availability);
    result.trace.lambda.push_back(lambda);

    // ---- Update the surrogate ------------------------------------------------
    if (!use_gp) {
      Matrix x(xs.size(), xs[0].size());
      for (std::size_t r = 0; r < xs.size(); ++r) x.set_row(r, xs[r]);
      bnn->train(x, ys, options_.train_epochs, 64, opt, &sched, rng);
    }
    if ((iter + 1) % 25 == 0) {
      common::log_info("stage2 iter ", iter + 1, "/", options_.iterations,
                       " lambda=", lambda, " best usage=", result.policy.best_usage,
                       " qoe=", result.policy.best_qoe);
    }
  }

  result.policy.qoe_model = bnn;
  result.policy.final_lambda = lambda;
  return result;
}

}  // namespace atlas::core
