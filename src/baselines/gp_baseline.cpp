#include "baselines/gp_baseline.hpp"

#include <algorithm>

#include "env/seed_plan.hpp"

namespace atlas::baselines {

using atlas::math::Rng;
using atlas::math::Vec;

GpBaseline::GpBaseline(env::EnvClient& service, env::BackendId real, GpBaselineOptions options)
    : service_(service), real_(real), options_(std::move(options)) {}

OnlineTrace GpBaseline::learn() {
  Rng rng(options_.seed);
  const env::SeedStream seeds =
      env::SeedPlan(options_.seed).stream(env::SeedDomain::kBaselineGpOnline, 1);
  OnlineTrace trace;
  bo::GpBoOptions bo_opts;
  bo_opts.acquisition = options_.acquisition;
  bo_opts.init_samples = options_.init_samples;
  bo_opts.candidates = options_.candidates;
  bo::GpBoMinimizer minimizer(env::SliceConfig::space(), bo_opts);

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    const Vec a = minimizer.ask(rng);
    const env::SliceConfig config = env::SliceConfig::from_vec(a);
    env::Workload wl = options_.workload;
    wl.seed = seeds.seed(iter, 0);
    const double qoe =
        service_.measure_qoe(real_, config, wl, options_.sla.latency_threshold_ms);
    const double usage = config.resource_usage();
    // Scalarized objective: usage plus a weighted SLA-violation penalty.
    const double objective =
        usage + options_.violation_weight * std::max(0.0, options_.sla.availability - qoe);
    minimizer.tell(a, objective);

    trace.configs.push_back(config);
    trace.usage.push_back(usage);
    trace.qoe.push_back(qoe);
  }
  return trace;
}

}  // namespace atlas::baselines
