#include "baselines/virtual_edge.hpp"

#include <algorithm>

#include "env/seed_plan.hpp"
#include "math/matrix.hpp"
#include "math/rng.hpp"

namespace atlas::baselines {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

VirtualEdge::VirtualEdge(env::EnvClient& service, env::BackendId real,
                         VirtualEdgeOptions options)
    : service_(service), real_(real), options_(std::move(options)) {}

OnlineTrace VirtualEdge::learn() {
  Rng rng(options_.seed);
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kBaselineVirtualEdgeOnline, 1);
  OnlineTrace trace;
  const auto space = env::SliceConfig::space();
  gp::GaussianProcess surrogate;

  std::vector<Vec> xs;
  Vec ys;

  // Start from the conservative full-resource configuration.
  Vec current = space.normalize(env::SliceConfig{}.to_vec());

  // Penalized objective from the GP's QoE estimate.
  auto objective = [&](const Vec& u) {
    const double usage = env::SliceConfig::from_vec(space.denormalize(u)).resource_usage();
    double qoe_hat = 1.0;
    if (surrogate.fitted()) {
      qoe_hat = std::clamp(surrogate.predict(u).mean, 0.0, 1.0);
    }
    return usage + options_.violation_weight * std::max(0.0, options_.sla.availability - qoe_hat);
  };

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // Exploration keeps the GP's design matrix non-degenerate.
    Vec probe = current;
    for (auto& v : probe) {
      v = std::clamp(v + rng.normal(0.0, options_.exploration_sigma), 0.0, 1.0);
    }

    const env::SliceConfig config = env::SliceConfig::from_vec(space.denormalize(probe));
    env::Workload wl = options_.workload;
    wl.seed = seeds.seed(iter, 0);
    const double qoe =
        service_.measure_qoe(real_, config, wl, options_.sla.latency_threshold_ms);

    trace.configs.push_back(config);
    trace.usage.push_back(config.resource_usage());
    trace.qoe.push_back(qoe);

    xs.push_back(probe);
    ys.push_back(qoe);
    Matrix x(xs.size(), space.dim());
    for (std::size_t r = 0; r < xs.size(); ++r) x.set_row(r, xs[r]);
    surrogate.fit(x, ys);

    // Predictive gradient descent on the GP-estimated objective (central
    // differences per dimension; all model queries, no real-network cost).
    Vec grad(space.dim(), 0.0);
    for (std::size_t d = 0; d < space.dim(); ++d) {
      Vec up = current;
      Vec down = current;
      up[d] = std::clamp(up[d] + options_.fd_delta, 0.0, 1.0);
      down[d] = std::clamp(down[d] - options_.fd_delta, 0.0, 1.0);
      const double denom = up[d] - down[d];
      grad[d] = denom > 0.0 ? (objective(up) - objective(down)) / denom : 0.0;
    }
    for (std::size_t d = 0; d < space.dim(); ++d) {
      current[d] = std::clamp(current[d] - options_.step_size * grad[d], 0.0, 1.0);
    }
  }
  return trace;
}

}  // namespace atlas::baselines
