#pragma once

#include "app/qoe.hpp"
#include "baselines/online_trace.hpp"
#include "bo/gp_bo.hpp"
#include "env/client.hpp"

namespace atlas::baselines {

/// The paper's "Baseline": plain Bayesian optimization with a GP surrogate
/// and an EI acquisition (other acquisitions selectable for Fig. 5/22-style
/// footprints), learning ONLINE in the real network directly — no simulator,
/// no offline knowledge, every exploratory step exposed to slice users.
struct GpBaselineOptions {
  std::size_t iterations = 100;
  bo::AcquisitionKind acquisition = bo::AcquisitionKind::kEi;
  std::size_t init_samples = 8;
  std::size_t candidates = 2000;
  double violation_weight = 2.0;  ///< Penalty on max(0, E - QoE) in the objective.
  app::Sla sla;
  env::Workload workload;
  std::uint64_t seed = 11;
};

class GpBaseline {
 public:
  /// `real` names the metered backend of `service` this baseline explores.
  GpBaseline(env::EnvClient& service, env::BackendId real, GpBaselineOptions options);

  /// Run the online loop; returns the per-iteration trace.
  OnlineTrace learn();

 private:
  env::EnvClient& service_;
  env::BackendId real_;
  GpBaselineOptions options_;
};

}  // namespace atlas::baselines
