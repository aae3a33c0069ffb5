#pragma once

#include "bo/space.hpp"
#include "math/matrix.hpp"

namespace atlas::env {

/// The 6-dimensional network configuration action of the paper's Table 2:
/// cross-domain resources granted to one slice for one configuration
/// interval.
struct SliceConfig {
  double bandwidth_ul = 50.0;   ///< Maximum uplink PRBs, [0, 50].
  double bandwidth_dl = 50.0;   ///< Maximum downlink PRBs, [0, 50].
  double mcs_offset_ul = 0.0;   ///< Uplink MCS backoff, [0, 10].
  double mcs_offset_dl = 0.0;   ///< Downlink MCS backoff, [0, 10].
  double backhaul_mbps = 100.0; ///< Transport meter rate, [0, 100] Mbps.
  double cpu_ratio = 1.0;       ///< Docker CPU share of the edge server, [0, 1].

  /// Table 2's box, in the order listed above.
  static bo::BoxSpace space();

  /// Round-trip through the flat vector representation used by surrogates.
  atlas::math::Vec to_vec() const;
  static SliceConfig from_vec(const atlas::math::Vec& v);
  /// from_vec() reading the 6 doubles at `v` in place.
  static SliceConfig from_vec(const double* v);

  /// Resource usage F(a) = (1/6) * sum_i a_i / A_i — the normalized L1 of
  /// Eq. 5 (the paper's reported "resource usage %" is this quantity).
  double resource_usage() const;

  /// Clamp every dimension into Table 2's ranges. The radio also keeps a
  /// minimal connectivity floor (6 UL / 3 DL PRBs, §8.2: "we set a minimum
  /// of 6 uplink and 3 downlink PRBs for maintaining radio connectivity").
  SliceConfig clamped() const;
};

/// Minimum PRBs that keep the UE attached (paper §8.2).
inline constexpr double kMinUlPrbs = 6.0;
inline constexpr double kMinDlPrbs = 3.0;

}  // namespace atlas::env
