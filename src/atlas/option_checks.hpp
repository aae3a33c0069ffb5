#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "app/qoe.hpp"
#include "env/episode.hpp"

namespace atlas::core {

/// Entry checks the stages share, so degenerate options fail at construction
/// with std::invalid_argument naming `stage`, not at the first episode.

/// The episode duration must be finite and > 0.
inline void check_workload(const char* stage, const env::Workload& workload) {
  if (!(std::isfinite(workload.duration_ms) && workload.duration_ms > 0.0)) {
    throw std::invalid_argument(std::string(stage) +
                                ": workload.duration_ms must be finite and > 0");
  }
}

/// The dual step must be finite and >= 0, the SLA's availability finite (a
/// target above 1 stays legal: it keeps lambda rising) and its latency
/// threshold finite and > 0.
inline void check_dual(const char* stage, double epsilon, const app::Sla& sla) {
  if (!(std::isfinite(epsilon) && epsilon >= 0.0)) {
    throw std::invalid_argument(std::string(stage) + ": epsilon must be finite and >= 0");
  }
  if (!std::isfinite(sla.availability)) {
    throw std::invalid_argument(std::string(stage) + ": sla.availability must be finite");
  }
  if (!(std::isfinite(sla.latency_threshold_ms) && sla.latency_threshold_ms > 0.0)) {
    throw std::invalid_argument(std::string(stage) +
                                ": sla.latency_threshold_ms must be finite and > 0");
  }
}

}  // namespace atlas::core
