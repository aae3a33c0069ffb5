#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "lte/phy.hpp"
#include "math/rng.hpp"

namespace atlas::lte {

/// A unit of data awaiting radio transmission (an application frame on the
/// uplink, a result on the downlink). Identified by the application frame id.
struct RadioSdu {
  std::uint64_t id = 0;
  double bits_remaining = 0.0;
};

/// Byte queue feeding one direction of one UE's radio link (RLC-style).
///
/// Uplink queues model the LTE scheduling-request cycle: data arriving into
/// an *empty* queue only becomes schedulable after an access delay (SR
/// periodicity + grant processing), which is what makes small-packet RTTs
/// tens of milliseconds on real LTE (paper Table 1's 34 ms ping).
class RadioQueue {
 public:
  /// Enqueue an SDU at `now`; if the queue was empty, data becomes
  /// schedulable at now + access_delay_ms.
  void push(std::uint64_t id, double bits, double now, double access_delay_ms);

  /// Full-buffer mode: the queue always has data (throughput probes).
  void set_full_buffer(bool on) noexcept { full_buffer_ = on; }
  bool full_buffer() const noexcept { return full_buffer_; }

  /// Inline: the scheduler polls every UE in every direction every TTI.
  bool has_data(double now) const noexcept {
    if (full_buffer_) return true;
    return !sdus_.empty() && now >= schedulable_at_;
  }

  /// The earliest time has_data() can turn true before the next push, for a
  /// queue not in full-buffer mode: when queued data clears its access
  /// delay, or +inf for an empty queue.
  double schedulable_at() const noexcept {
    return sdus_.empty() ? std::numeric_limits<double>::infinity() : schedulable_at_;
  }

  /// Total queued bits. O(1): maintained incrementally in push/drain (the
  /// scheduler asks every busy TTI; summing the deque was O(n) per TTI).
  /// Debug builds assert the running total against the recomputed sum.
  double queued_bits() const noexcept { return queued_bits_; }

  /// Remove up to `bits` from the head; appends ids of fully-drained SDUs to
  /// `done` (caller-owned, reused across TTIs — no allocation here).
  void drain_into(double bits, std::vector<std::uint64_t>& done);

  /// Convenience wrapper allocating the result (tests / cold paths).
  std::vector<std::uint64_t> drain(double bits);

 private:
  std::deque<RadioSdu> sdus_;
  double queued_bits_ = 0.0;
  double schedulable_at_ = 0.0;
  bool full_buffer_ = false;
};

/// Scalar result of one TTI of one UE in one direction (the hot-path
/// variant: completed-SDU ids go into a caller-owned buffer instead).
struct TtiStats {
  double delivered_bits = 0.0;
  int tb_total = 0;  ///< Transport blocks attempted.
  int tb_err = 0;    ///< Transport blocks errored (HARQ retransmission).
  int mcs = 0;
  double sinr_db = 0.0;
};

/// Result of one TTI of one UE in one direction, with completions attached
/// (allocating convenience form used by tests).
struct TtiOutcome : TtiStats {
  std::vector<std::uint64_t> completed;  ///< SDUs fully delivered this TTI.
};

/// Per-direction radio parameters shared by all UEs of a deployment.
struct RadioParams {
  LinkBudget budget;
  int mcs_cap = kMaxMcs;
  double la_margin_db = 3.5;   ///< Link-adaptation backoff (~3.7e-3 BLER).
  double tbs_overhead = 0.75;  ///< PHY capacity fraction carried by the TB.
  int harq_rtt_ttis = 1;       ///< TTIs until an errored TB is retransmitted
                               ///< (1 = next TTI; the real stack needs ~8).
};

/// One UE's radio state: position, a (reciprocal) fast-fading process, and
/// UL/DL queues. The episode runner steps fading once per TTI and asks the
/// scheduler to run each direction.
///
/// `cqi_lag_ttis` models outdated channel-state reporting: link adaptation
/// picks the MCS from the fading value `cqi_lag_ttis` TTIs ago while the
/// block error is rolled on the *current* fading — the mechanism behind the
/// real network's elevated packet error rates in the paper's Table 1.
///
/// Link-budget caching: the pathloss and noise-floor terms of the per-TTI
/// SINR only change on set_distance (mobility cadence, 100 ms) or never
/// (budget is fixed at construction), so they are precomputed per direction
/// instead of paying log10/pow every TTI. A one-entry BLER memo per
/// direction likewise skips the logistic exp() whenever (mcs, sinr) repeats
/// — every TTI when fading is disabled (the simulator profile).
class UeRadio {
 public:
  UeRadio(RadioParams ul, RadioParams dl, double distance_m, double fading_sigma_db,
          double fading_rho, int cqi_lag_ttis = 0);

  /// Inline: stepped for every UE every TTI; with fading disabled (the
  /// simulator profile) this must cost a branch, not two calls.
  void step_fading(atlas::math::Rng& rng) {
    fading_.step(rng);
    if (cqi_lag_ttis_ > 0) {
      // Ring buffer of the last lag+1 values: same contents and same "oldest
      // first" semantics as the deque it replaces, without per-TTI deque ops.
      const std::size_t cap = fading_history_.size();
      if (fh_count_ < cap) {
        fading_history_[fh_count_++] = fading_.value();
      } else {
        fading_history_[fh_head_] = fading_.value();
        if (++fh_head_ == cap) fh_head_ = 0;
      }
    }
  }
  void set_distance(double d) noexcept;
  double distance() const noexcept { return distance_m_; }
  /// False under the simulator profile: step_fading then draws nothing.
  bool fading_enabled() const noexcept { return fading_.enabled(); }

  RadioQueue& ul_queue() noexcept { return ul_queue_; }
  RadioQueue& dl_queue() noexcept { return dl_queue_; }
  const RadioQueue& ul_queue() const noexcept { return ul_queue_; }
  const RadioQueue& dl_queue() const noexcept { return dl_queue_; }

  /// Run one TTI in one direction on `prbs` granted PRBs with the slice's
  /// MCS offset; fully-delivered SDU ids are appended to `completed`
  /// (caller-owned, reused across TTIs). No-op (all-zero outcome) if the
  /// queue has no schedulable data or prbs == 0.
  TtiStats run_tti_into(bool uplink, double now, int prbs, int mcs_offset,
                        atlas::math::Rng& rng, std::vector<std::uint64_t>& completed);

  /// Allocating convenience form of run_tti_into (tests / cold paths).
  TtiOutcome run_tti(bool uplink, double now, int prbs, int mcs_offset,
                     atlas::math::Rng& rng);

 private:
  double cqi_fading_db() const noexcept {
    if (cqi_lag_ttis_ == 0 || fh_count_ == 0) return fading_.value();
    return fading_history_[fh_count_ < fading_history_.size() ? 0 : fh_head_];
  }
  void refresh_link_cache() noexcept;

  /// Distance/budget terms of sinr_db, precomputed per direction.
  struct LinkCache {
    double pathloss_db = 0.0;
    double floor_db = 0.0;
  };
  /// One-entry memo of the full per-TTI link computation (SINR, MCS, TB
  /// size, BLER) keyed on its only per-TTI inputs: the two fading values and
  /// the grant. Budget and margin are fixed per UE; distance invalidates via
  /// set_distance. A steady-state UE (fading disabled, stable grant — every
  /// background full-buffer UE on the simulator profile) hits every TTI and
  /// pays one compare + one Bernoulli draw instead of the whole chain.
  struct TtiMemo {
    bool valid = false;
    double cqi_fading = 0.0;
    double fading = 0.0;
    int prbs = -1;
    int offset = 0;
    int mcs = 0;
    double sinr_db = 0.0;
    double tb = 0.0;
    double p = 0.0;
  };

  RadioParams ul_params_, dl_params_;
  double distance_m_;
  FadingProcess fading_;
  int cqi_lag_ttis_;
  std::vector<double> fading_history_;  ///< Ring buffer of the last lag+1 values.
  std::size_t fh_head_ = 0;             ///< Index of the oldest entry once full.
  std::size_t fh_count_ = 0;
  RadioQueue ul_queue_, dl_queue_;
  LinkCache ul_link_cache_, dl_link_cache_;
  TtiMemo ul_memo_, dl_memo_;
  double ul_blocked_until_ = 0.0;  ///< HARQ round-trip gate after a TB error.
  double dl_blocked_until_ = 0.0;
};

/// A slice's radio share for the per-TTI scheduler.
struct SliceRadioShare {
  int prb_cap_ul = kTotalPrbs;
  int prb_cap_dl = kTotalPrbs;
  int mcs_offset_ul = 0;
  int mcs_offset_dl = 0;
  std::vector<UeRadio*> ues;
};

/// Reusable per-episode working set of the TTI scheduler: the active-UE set,
/// the flat completed-SDU id buffer, and the per-UE spans into it all live
/// here, so steady-state TTIs perform no allocation at all. One instance per
/// episode (or per thread); cleared and refilled by each run_direction_tti.
struct TtiScratch {
  /// `ids[begin .. begin+count)` are the SDUs `ue` completed this TTI.
  struct CompletedSpan {
    UeRadio* ue = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  double delivered_bits = 0.0;
  int tb_total = 0;
  int tb_err = 0;
  std::vector<std::uint64_t> ids;
  std::vector<CompletedSpan> completed;
  std::vector<UeRadio*> active;  ///< Per-slice working set; transient.

  void reset() noexcept {
    delivered_bits = 0.0;
    tb_total = 0;
    tb_err = 0;
    ids.clear();
    completed.clear();
    active.clear();
  }
};

/// Aggregate of one direction over one TTI across all slices (allocating
/// convenience form used by tests).
struct DirectionTti {
  double delivered_bits = 0.0;
  int tb_total = 0;
  int tb_err = 0;
  std::vector<std::pair<UeRadio*, std::vector<std::uint64_t>>> completed;
};

/// True when any UE in any slice has schedulable data for `uplink` at `now`.
/// Inline idle fast-path: most TTIs of a frame-based workload have nothing
/// queued (SR wait, frame gaps), and when this returns false a
/// run_direction_tti call would be a complete no-op — no RNG draws, no
/// counters, no completions — so callers skip it entirely.
inline bool direction_has_active_ue(const std::vector<SliceRadioShare>& slices, bool uplink,
                                    double now) noexcept {
  for (const auto& slice : slices) {
    for (const UeRadio* ue : slice.ues) {
      const RadioQueue& q = uplink ? ue->ul_queue() : ue->dl_queue();
      if (q.has_data(now)) return true;
    }
  }
  return false;
}

/// Run one TTI for one direction across slices into `scratch` (reset first).
/// Each slice receives at most its PRB cap (performance isolation, as
/// enforced by FlexRAN in the paper's prototype); within a slice, PRBs split
/// evenly among UEs with schedulable data. Total grants never exceed
/// kTotalPrbs (slices are served in order).
void run_direction_tti(std::vector<SliceRadioShare>& slices, bool uplink, double now,
                       atlas::math::Rng& rng, TtiScratch& scratch);

/// Allocating convenience form of the above (tests / cold paths).
DirectionTti run_direction_tti(std::vector<SliceRadioShare>& slices, bool uplink, double now,
                               atlas::math::Rng& rng);

}  // namespace atlas::lte
