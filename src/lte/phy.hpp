#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/rng.hpp"

namespace atlas::lte {

/// 10 MHz LTE numerology used throughout (50 PRBs, 1 ms TTI) — matching the
/// paper's band-7 eNB (§7.1).
inline constexpr int kTotalPrbs = 50;
inline constexpr double kTtiMs = 1.0;
inline constexpr double kPrbBandwidthHz = 180e3;
inline constexpr int kMaxMcs = 28;

namespace detail {
/// 3GPP TS 36.213-style efficiency ladder (QPSK -> 16QAM -> 64QAM),
/// bits/s/Hz for MCS 0..28.
inline constexpr double kMcsEfficiency[kMaxMcs + 1] = {
    0.15, 0.19, 0.23, 0.31, 0.38, 0.49, 0.60, 0.74, 0.88, 1.03,
    1.18, 1.33, 1.48, 1.70, 1.91, 2.16, 2.41, 2.57, 2.73, 3.03,
    3.32, 3.61, 3.90, 4.21, 4.52, 4.82, 5.12, 5.33, 5.55};
}  // namespace detail

// The per-TTI MAC/PHY functions below are defined inline: the scheduler
// evaluates them for every active UE every millisecond of simulated time,
// and the episode engine's throughput is bounded by exactly this arithmetic.

/// Spectral efficiency (bits/s/Hz) for MCS 0..28, following the 3GPP 36.213
/// 64-QAM CQI/MCS efficiency ladder.
inline double mcs_efficiency(int mcs) {
  if (mcs < 0 || mcs > kMaxMcs) throw std::invalid_argument("mcs_efficiency: mcs out of range");
  return detail::kMcsEfficiency[mcs];
}

/// SINR (dB) needed to run MCS `mcs` at the ~10% BLER operating point of the
/// AWGN waterfall below. Approximately linear in MCS, as in link-level LTE
/// abstractions (Ikuno et al. 2010).
inline double mcs_sinr_threshold_db(int mcs) {
  if (mcs < 0 || mcs > kMaxMcs) {
    throw std::invalid_argument("mcs_sinr_threshold_db: mcs out of range");
  }
  // Linearized waterfall positions: MCS 0 decodes around -7 dB, MCS 28 needs
  // about 22.4 dB — the usual AWGN link-abstraction slope of ~1.05 dB/MCS.
  return -7.0 + 1.05 * static_cast<double>(mcs);
}

/// Transport block size in BITS for one TTI on `prbs` PRBs at MCS `mcs`.
/// Includes the control/reference-symbol overhead derate `overhead`
/// (fraction of PHY capacity left for the transport block).
inline double tbs_bits(int mcs, int prbs, double overhead = 0.75) {
  if (prbs < 0) throw std::invalid_argument("tbs_bits: negative PRBs");
  if (prbs == 0) return 0.0;
  return mcs_efficiency(mcs) * kPrbBandwidthHz * (kTtiMs / 1000.0) *
         static_cast<double>(prbs) * overhead;
}

/// AWGN block-error probability of MCS `mcs` at SINR `sinr_db`: logistic
/// waterfall centred on the MCS threshold. At threshold + 3.5 dB (our default
/// link-adaptation margin) this gives ~3.7e-3, reproducing the sim-side PER
/// magnitudes of the paper's Table 1.
inline double bler(int mcs, double sinr_db, double steepness = 1.6) {
  const double margin = sinr_db - mcs_sinr_threshold_db(mcs);
  return 1.0 / (1.0 + std::exp(steepness * margin));
}

/// Link adaptation: the largest MCS (capped at `cap`) whose threshold +
/// `margin_db` fits under `sinr_db`, minus the slice's `mcs_offset`
/// (Table 2's reliability knob), floored at 0.
inline int select_mcs(double sinr_db, double margin_db, int mcs_offset, int cap) {
  cap = std::clamp(cap, 0, kMaxMcs);
  // Closed form of the linear waterfall: the ladder is threshold(m) =
  // -7 + 1.05 m, so the largest feasible MCS is floor((sinr - margin + 7) /
  // 1.05). The floating floor can land one step off at exact threshold
  // boundaries, so the estimate is corrected against the scan's exact
  // predicate — at most one step in either direction — keeping the result
  // bit-identical to the original linear search at ~O(1) cost.
  const double est = (sinr_db - margin_db + 7.0) / 1.05;
  int m;
  if (est >= static_cast<double>(cap)) {
    m = cap;
  } else if (est < 0.0) {
    m = 0;
  } else {
    m = static_cast<int>(est);
  }
  while (m < cap && mcs_sinr_threshold_db(m + 1) + margin_db <= sinr_db) ++m;
  while (m > 0 && mcs_sinr_threshold_db(m) + margin_db > sinr_db) --m;
  return std::max(0, m - std::max(0, mcs_offset));
}

/// Log-distance pathloss: PL(d) = baseline_loss + 10 * exponent * log10(d / 1 m).
/// `baseline_loss_db` defaults to NS-3's LogDistancePropagationLossModel
/// ReferenceLoss (38.57 dB, paper Table 4).
double pathloss_db(double distance_m, double baseline_loss_db, double exponent);

/// One direction's link-budget parameters.
///
/// Transmit power is expressed as a per-PRB power spectral density: LTE
/// PUSCH power control targets (approximately) constant PSD, and the eNB
/// splits PDSCH power evenly over the carrier, so per-PRB SINR does not
/// depend on the grant size in either direction.
struct LinkBudget {
  double tx_psd_dbm_per_prb = -57.0;  ///< Transmit power per PRB (180 kHz).
  double baseline_loss_db = 38.57;    ///< Reference pathloss at 1 m.
  double pathloss_exponent = 3.0;     ///< NS-3 LogDistance default.
  double noise_figure_db = 5.0;       ///< Receiver noise figure.
  double interference_dbm = -200.0;   ///< Per-PRB interference floor (off by default).
  double sinr_cap_db = 32.0;          ///< Hardware EVM ceiling.
};

/// Per-PRB SINR (dB) at distance `distance_m` with instantaneous fading
/// offset `fading_db` (0 when the profile models no fast fading — the NS-3
/// configuration in §7.2).
double sinr_db(const LinkBudget& budget, double distance_m, double fading_db);

/// The noise + interference floor term of sinr_db (dB). Depends only on the
/// budget, so callers evaluating SINR every TTI cache it per link.
double noise_interference_floor_db(const LinkBudget& budget);

/// sinr_db() from precomputed pathloss and floor terms. Bit-identical to
/// sinr_db() (same expressions in the same order); sinr_db() is implemented
/// on top of this, and UeRadio invalidates its cached terms only on
/// set_distance — the mobility cadence (100 ms), not the TTI cadence (1 ms).
inline double sinr_db_cached(const LinkBudget& budget, double pathloss_db, double floor_db,
                             double fading_db) {
  const double rx_dbm = budget.tx_psd_dbm_per_prb - pathloss_db + fading_db;
  const double sinr = rx_dbm - floor_db;
  return std::min(sinr, budget.sinr_cap_db);
}

/// First-order autoregressive fast-fading process in dB. Only the real
/// network fades: the simulator profile has no fading model (§7.2), and no
/// Table 3 parameter adds one, so calibration can offset its average effect
/// on the link but not its spread. value() is N(0, sigma^2) marginally with per-TTI
/// correlation `rho`.
class FadingProcess {
 public:
  FadingProcess(double sigma_db, double rho)
      : sigma_db_(sigma_db),
        rho_(std::clamp(rho, 0.0, 0.9999)),
        innovation_scale_(sigma_db * std::sqrt(1.0 - rho_ * rho_)) {}

  /// Advance one TTI and return the new fading value (dB). Inline: stepped
  /// for every UE every TTI, and the disabled (simulator) case must cost a
  /// branch, not a call. The innovation scale sigma * sqrt(1 - rho^2) is
  /// hoisted to construction (it used to cost a sqrt per TTI per UE).
  double step(atlas::math::Rng& rng) {
    if (!enabled()) return 0.0;
    value_ = rho_ * value_ + innovation_scale_ * rng.normal();
    return value_;
  }
  double value() const noexcept { return value_; }
  bool enabled() const noexcept { return sigma_db_ > 0.0; }

 private:
  double sigma_db_;
  double rho_;
  double innovation_scale_;
  double value_ = 0.0;
};

}  // namespace atlas::lte
