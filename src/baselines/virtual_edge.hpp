#pragma once

#include "app/qoe.hpp"
#include "baselines/online_trace.hpp"
#include "env/client.hpp"
#include "gp/gaussian_process.hpp"

namespace atlas::baselines {

/// VirtualEdge (Liu & Han, ICDCS '19), adapted per the paper's §8: a GP
/// learns the unknown slice QoE online; the configuration is updated by
/// PREDICTIVE GRADIENT DESCENT — a numerical gradient of the penalized
/// objective, estimated from the GP posterior mean around the current
/// configuration — plus a small exploration perturbation that keeps the GP
/// informed. Purely online: the cost of every descent step is paid by real
/// slice users.
struct VirtualEdgeOptions {
  std::size_t iterations = 100;
  double step_size = 0.2;           ///< Descent step in normalized coordinates.
  double fd_delta = 0.05;           ///< Finite-difference probe radius.
  double exploration_sigma = 0.08;  ///< Per-step Gaussian exploration.
  double violation_weight = 1.2;    ///< Penalty on max(0, E - QoE): descent
                                    ///< rides the constraint from below.
  app::Sla sla;
  env::Workload workload;
  std::uint64_t seed = 17;
};

class VirtualEdge {
 public:
  /// `real` names the metered backend of `service` the descent runs against.
  VirtualEdge(env::EnvClient& service, env::BackendId real, VirtualEdgeOptions options);

  OnlineTrace learn();

 private:
  env::EnvClient& service_;
  env::BackendId real_;
  VirtualEdgeOptions options_;
};

}  // namespace atlas::baselines
