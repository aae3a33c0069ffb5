#pragma once

#include "bo/space.hpp"
#include "math/matrix.hpp"

namespace atlas::env {

/// The 7-dimensional simulation-parameter vector of the paper's Table 3 —
/// the knobs Stage 1's Bayesian optimization turns to shrink the sim-to-real
/// discrepancy.
struct SimParams {
  double baseline_loss_db = 38.57;   ///< LogDistance ReferenceLoss (NS-3 default).
  double enb_noise_figure_db = 5.0;  ///< eNB receiver noise figure (NS-3 default).
  double ue_noise_figure_db = 9.0;   ///< UE receiver noise figure (NS-3 default).
  double backhaul_bw_mbps = 0.0;     ///< ADDITIONAL transport bandwidth.
  double backhaul_delay_ms = 0.0;    ///< ADDITIONAL transport delay.
  double compute_time_ms = 0.0;      ///< ADDITIONAL edge compute time.
  double loading_time_ms = 0.0;      ///< ADDITIONAL UE loading time.

  /// Search box for Stage 1 (centered on the defaults below).
  static bo::BoxSpace space();

  /// The original (specification-derived) parameters x-hat of Eq. 2.
  static SimParams defaults() { return SimParams{}; }

  atlas::math::Vec to_vec() const;
  static SimParams from_vec(const atlas::math::Vec& v);

  /// Parameter distance |x - x_hat|_2 on range-normalized coordinates,
  /// divided by sqrt(d): bo::BoxSpace::distance, which says why.
  double distance_to(const SimParams& other) const;
};

}  // namespace atlas::env
