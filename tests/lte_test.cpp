#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lte/mac.hpp"
#include "lte/phy.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"

namespace al = atlas::lte;
namespace am = atlas::math;

TEST(Phy, EfficiencyMonotoneInMcs) {
  for (int m = 1; m <= al::kMaxMcs; ++m) {
    EXPECT_GT(al::mcs_efficiency(m), al::mcs_efficiency(m - 1));
  }
  EXPECT_THROW(al::mcs_efficiency(-1), std::invalid_argument);
  EXPECT_THROW(al::mcs_efficiency(29), std::invalid_argument);
}

TEST(Phy, ThresholdMonotoneInMcs) {
  for (int m = 1; m <= al::kMaxMcs; ++m) {
    EXPECT_GT(al::mcs_sinr_threshold_db(m), al::mcs_sinr_threshold_db(m - 1));
  }
}

TEST(Phy, TbsScalesWithPrbsAndMcs) {
  EXPECT_DOUBLE_EQ(al::tbs_bits(10, 0), 0.0);
  EXPECT_GT(al::tbs_bits(10, 20), al::tbs_bits(10, 10));
  EXPECT_GT(al::tbs_bits(20, 10), al::tbs_bits(10, 10));
  EXPECT_NEAR(al::tbs_bits(10, 10) * 2.0, al::tbs_bits(10, 20), 1e-9);
  EXPECT_THROW(al::tbs_bits(5, -1), std::invalid_argument);
}

TEST(Phy, FullCarrierThroughputMatchesTable1) {
  // The simulator's operating points (src/env/profile.cpp): UL MCS 23 @ 0.55
  // derate, DL MCS 27 @ 0.675 -> Table 1's 19.87 / 32.37 Mbps within ~10%.
  const double ul_mbps = al::tbs_bits(23, 50, 0.55) / 1e3;  // bits per TTI -> Mbps
  const double dl_mbps = al::tbs_bits(27, 50, 0.675) / 1e3;
  EXPECT_NEAR(ul_mbps, 19.87, 2.0);
  EXPECT_NEAR(dl_mbps, 32.37, 2.0);
}

TEST(Phy, BlerWaterfall) {
  // Far above threshold: ~0; far below: ~1; at threshold: 1/2.
  EXPECT_LT(al::bler(10, al::mcs_sinr_threshold_db(10) + 10.0), 1e-5);
  EXPECT_GT(al::bler(10, al::mcs_sinr_threshold_db(10) - 10.0), 1.0 - 1e-5);
  EXPECT_NEAR(al::bler(10, al::mcs_sinr_threshold_db(10)), 0.5, 1e-12);
  // Monotone decreasing in SINR.
  EXPECT_GT(al::bler(10, 3.0), al::bler(10, 5.0));
}

TEST(Phy, SelectMcsRespectsMarginOffsetCap) {
  // Plenty of SINR: capped.
  EXPECT_EQ(al::select_mcs(50.0, 3.5, 0, 20), 20);
  // Offset subtracts.
  EXPECT_EQ(al::select_mcs(50.0, 3.5, 5, 20), 15);
  // Offset floors at zero.
  EXPECT_EQ(al::select_mcs(-20.0, 3.5, 8, 20), 0);
  // Higher margin -> more conservative.
  EXPECT_LE(al::select_mcs(10.0, 6.0, 0, 28), al::select_mcs(10.0, 2.0, 0, 28));
}

TEST(Phy, SelectMcsClosedFormMatchesLinearScan) {
  // The closed-form link adaptation must be bit-identical to the reference
  // linear threshold scan — including exactly at threshold boundaries, where
  // the floating floor is most likely to land one step off.
  auto reference = [](double sinr, double margin, int offset, int cap) {
    cap = std::clamp(cap, 0, al::kMaxMcs);
    int mcs = 0;
    for (int m = cap; m >= 0; --m) {
      if (al::mcs_sinr_threshold_db(m) + margin <= sinr) {
        mcs = m;
        break;
      }
    }
    return std::max(0, mcs - std::max(0, offset));
  };
  for (const double margin : {0.0, 2.0, 3.5, 6.0}) {
    for (const int offset : {0, 3, 10}) {
      for (const int cap : {0, 5, 24, 28}) {
        for (double sinr = -12.0; sinr <= 35.0; sinr += 0.01) {
          ASSERT_EQ(al::select_mcs(sinr, margin, offset, cap),
                    reference(sinr, margin, offset, cap))
              << "sinr=" << sinr << " margin=" << margin << " offset=" << offset
              << " cap=" << cap;
        }
        for (int m = 0; m <= al::kMaxMcs; ++m) {
          // Exact boundary: threshold(m) + margin.
          const double sinr = al::mcs_sinr_threshold_db(m) + margin;
          ASSERT_EQ(al::select_mcs(sinr, margin, offset, cap),
                    reference(sinr, margin, offset, cap));
        }
      }
    }
  }
}

TEST(Phy, CachedSinrMatchesDirectComputation) {
  // sinr_db_cached with precomputed pathloss/floor terms must reproduce
  // sinr_db bit-for-bit (the UE caches these per direction and invalidates
  // only on set_distance).
  al::LinkBudget b;
  b.interference_dbm = -110.0;
  for (double d = 0.3; d < 13.0; d += 0.37) {
    const double pl = al::pathloss_db(d, b.baseline_loss_db, b.pathloss_exponent);
    const double floor_db = al::noise_interference_floor_db(b);
    for (double fading = -8.0; fading <= 8.0; fading += 1.7) {
      const double direct = al::sinr_db(b, d, fading);
      const double cached = al::sinr_db_cached(b, pl, floor_db, fading);
      EXPECT_EQ(direct, cached);  // bitwise, not NEAR
    }
  }
}

TEST(Phy, PathlossLogDistance) {
  EXPECT_NEAR(al::pathloss_db(1.0, 38.57, 3.0), 38.57, 1e-12);
  EXPECT_NEAR(al::pathloss_db(10.0, 38.57, 3.0), 68.57, 1e-12);
  // Steeper exponent decays faster.
  EXPECT_GT(al::pathloss_db(10.0, 38.57, 3.35), al::pathloss_db(10.0, 38.57, 3.0));
}

TEST(Phy, SinrDecreasesWithDistanceAndNoiseFigure) {
  al::LinkBudget b;
  const double near = al::sinr_db(b, 1.0, 0.0);
  const double far = al::sinr_db(b, 5.0, 0.0);
  EXPECT_GT(near, far);
  al::LinkBudget hot = b;
  hot.noise_figure_db += 3.0;
  // The (disabled) interference floor still contributes ~1e-8 dB, so the
  // comparison is near-exact rather than bit-exact.
  EXPECT_NEAR(al::sinr_db(b, 2.0, 0.0) - al::sinr_db(hot, 2.0, 0.0), 3.0, 1e-6);
}

TEST(Phy, SinrCapApplies) {
  al::LinkBudget b;
  b.sinr_cap_db = 20.0;
  b.tx_psd_dbm_per_prb = 30.0;  // absurdly strong
  EXPECT_DOUBLE_EQ(al::sinr_db(b, 1.0, 0.0), 20.0);
}

TEST(Phy, FadingProcessStationaryStatistics) {
  al::FadingProcess fading(2.5, 0.9);
  am::Rng rng(1);
  am::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(fading.step(rng));
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.5, 0.15);
}

TEST(Phy, DisabledFadingStaysZero) {
  al::FadingProcess fading(0.0, 0.9);
  am::Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(fading.step(rng), 0.0);
  EXPECT_FALSE(fading.enabled());
}

TEST(RadioQueue, SrAccessGatesFirstData) {
  al::RadioQueue q;
  q.push(1, 1000.0, /*now=*/10.0, /*access=*/13.0);
  EXPECT_FALSE(q.has_data(10.0));
  EXPECT_FALSE(q.has_data(22.9));
  EXPECT_TRUE(q.has_data(23.0));
  // Arrivals into a NON-empty queue are not re-gated.
  q.push(2, 500.0, 24.0, 13.0);
  EXPECT_TRUE(q.has_data(24.0));
}

TEST(RadioQueue, DrainCompletesSdusInOrder) {
  al::RadioQueue q;
  q.push(1, 1000.0, 0.0, 0.0);
  q.push(2, 500.0, 0.0, 0.0);
  auto done = q.drain(999.0);
  EXPECT_TRUE(done.empty());
  EXPECT_DOUBLE_EQ(q.queued_bits(), 501.0);
  done = q.drain(1.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  done = q.drain(10000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
}

TEST(RadioQueue, FullBufferAlwaysHasData) {
  al::RadioQueue q;
  q.set_full_buffer(true);
  EXPECT_TRUE(q.has_data(0.0));
}

TEST(RadioQueue, IncrementalTotalTracksPushesAndPartialDrains) {
  // queued_bits() is now an O(1) running total; it must track any sequence
  // of pushes and full/partial drains (the debug build additionally asserts
  // it against the recomputed sum inside push/drain).
  al::RadioQueue q;
  EXPECT_DOUBLE_EQ(q.queued_bits(), 0.0);
  std::vector<std::uint64_t> done;
  double expected = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double bits = 100.0 + 7.0 * i;
    q.push(static_cast<std::uint64_t>(i), bits, 0.0, 0.0);
    expected += bits;
  }
  EXPECT_DOUBLE_EQ(q.queued_bits(), expected);
  q.drain_into(33.5, done);  // partial head drain
  EXPECT_NEAR(q.queued_bits(), expected - 33.5, 1e-9);
  q.drain_into(1000.0, done);
  EXPECT_NEAR(q.queued_bits(), expected - 1033.5, 1e-9);
  q.drain_into(1e9, done);  // drain everything
  EXPECT_DOUBLE_EQ(q.queued_bits(), 0.0);
  EXPECT_EQ(done.size(), 50u);
}

TEST(RadioQueue, DrainIntoAppendsWithoutClearing) {
  al::RadioQueue q;
  q.push(1, 10.0, 0.0, 0.0);
  q.push(2, 10.0, 0.0, 0.0);
  std::vector<std::uint64_t> done{99};
  q.drain_into(100.0, done);
  EXPECT_EQ(done, (std::vector<std::uint64_t>{99, 1, 2}));
}

namespace {

al::RadioParams ideal_radio() {
  al::RadioParams p;
  p.budget.tx_psd_dbm_per_prb = -57.0;
  p.mcs_cap = 24;
  p.tbs_overhead = 0.55;
  return p;
}

}  // namespace

TEST(UeRadio, FullBufferTtiDeliversTbs) {
  am::Rng rng(3);
  al::UeRadio ue(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  ue.ul_queue().set_full_buffer(true);
  const auto out = ue.run_tti(true, 0.0, 50, 0, rng);
  EXPECT_EQ(out.tb_total, 1);
  if (out.tb_err == 0) {
    EXPECT_NEAR(out.delivered_bits, al::tbs_bits(out.mcs, 50, 0.55), 1e-9);
  }
}

TEST(UeRadio, NoGrantNoTransmission) {
  am::Rng rng(4);
  al::UeRadio ue(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  ue.ul_queue().set_full_buffer(true);
  const auto out = ue.run_tti(true, 0.0, 0, 0, rng);
  EXPECT_EQ(out.tb_total, 0);
  EXPECT_DOUBLE_EQ(out.delivered_bits, 0.0);
}

TEST(UeRadio, McsOffsetLowersRate) {
  am::Rng rng(5);
  al::UeRadio a(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  al::UeRadio b(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  a.ul_queue().set_full_buffer(true);
  b.ul_queue().set_full_buffer(true);
  const auto out_a = a.run_tti(true, 0.0, 25, 0, rng);
  const auto out_b = b.run_tti(true, 0.0, 25, 5, rng);
  EXPECT_EQ(out_b.mcs, out_a.mcs - 5);
}

TEST(UeRadio, HarqBlocksAfterError) {
  am::Rng rng(6);
  al::RadioParams weak = ideal_radio();
  weak.budget.baseline_loss_db = 80.0;  // hopeless link: every TB errors
  weak.harq_rtt_ttis = 3;
  al::UeRadio ue(weak, weak, 1.0, 0.0, 0.9);
  ue.ul_queue().set_full_buffer(true);
  const auto first = ue.run_tti(true, 0.0, 25, 0, rng);
  EXPECT_EQ(first.tb_err, 1);
  // Blocked during the HARQ round trip.
  EXPECT_EQ(ue.run_tti(true, 1.0, 25, 0, rng).tb_total, 0);
  EXPECT_EQ(ue.run_tti(true, 2.0, 25, 0, rng).tb_total, 0);
  EXPECT_EQ(ue.run_tti(true, 3.0, 25, 0, rng).tb_total, 1);
}

TEST(Scheduler, RespectsSliceCaps) {
  am::Rng rng(7);
  al::UeRadio ue1(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  al::UeRadio ue2(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  ue1.ul_queue().set_full_buffer(true);
  ue2.ul_queue().set_full_buffer(true);
  std::vector<al::SliceRadioShare> slices(2);
  slices[0].prb_cap_ul = 10;
  slices[0].ues = {&ue1};
  slices[1].prb_cap_ul = 40;
  slices[1].ues = {&ue2};
  const auto out = al::run_direction_tti(slices, true, 0.0, rng);
  // Slice 1 gets at most 10 PRBs worth; slice 2 the rest. Compare via total.
  double expected = 0.0;
  expected += al::tbs_bits(23, 10, 0.55);
  expected += al::tbs_bits(23, 40, 0.55);
  if (out.tb_err == 0) {
    EXPECT_NEAR(out.delivered_bits, expected, expected * 0.01);
  }
}

TEST(Scheduler, SplitsPrbsWithinSlice) {
  am::Rng rng(8);
  al::UeRadio ue1(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  al::UeRadio ue2(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  ue1.ul_queue().set_full_buffer(true);
  ue2.ul_queue().set_full_buffer(true);
  std::vector<al::SliceRadioShare> slices(1);
  slices[0].prb_cap_ul = 20;
  slices[0].ues = {&ue1, &ue2};
  const auto out = al::run_direction_tti(slices, true, 0.0, rng);
  EXPECT_EQ(out.tb_total, 2);  // both UEs served 10 PRBs each
}

TEST(Scheduler, IdleSliceConsumesNothing) {
  am::Rng rng(9);
  al::UeRadio ue(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  std::vector<al::SliceRadioShare> slices(1);
  slices[0].ues = {&ue};
  const auto out = al::run_direction_tti(slices, true, 0.0, rng);
  EXPECT_EQ(out.tb_total, 0);
  EXPECT_TRUE(out.completed.empty());
}

TEST(Scheduler, TotalGrantsNeverExceedCarrier) {
  am::Rng rng(10);
  al::UeRadio ue1(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  al::UeRadio ue2(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  ue1.ul_queue().set_full_buffer(true);
  ue2.ul_queue().set_full_buffer(true);
  std::vector<al::SliceRadioShare> slices(2);
  slices[0].prb_cap_ul = 40;
  slices[0].ues = {&ue1};
  slices[1].prb_cap_ul = 40;  // sum of caps exceeds 50
  slices[1].ues = {&ue2};
  const auto out = al::run_direction_tti(slices, true, 0.0, rng);
  // Second slice gets only the 10 remaining PRBs.
  const double max_bits = al::tbs_bits(24, 40, 0.55) + al::tbs_bits(24, 10, 0.55);
  EXPECT_LE(out.delivered_bits, max_bits + 1e-9);
}

TEST(Scheduler, ScratchFormMatchesAllocatingForm) {
  // The zero-allocation run_direction_tti must produce exactly what the
  // allocating convenience form reports: same aggregates, same per-UE
  // completion spans in the same order, same RNG consumption.
  auto build = [] {
    std::vector<al::UeRadio> ues;
    ues.reserve(3);
    for (int i = 0; i < 3; ++i) ues.emplace_back(ideal_radio(), ideal_radio(), 1.0, 2.0, 0.9);
    return ues;
  };
  auto load = [](std::vector<al::UeRadio>& ues) {
    ues[0].ul_queue().push(10, 5000.0, 0.0, 0.0);
    ues[0].ul_queue().push(11, 50.0, 0.0, 0.0);
    ues[1].ul_queue().push(20, 80.0, 0.0, 0.0);
    // ues[2] idle.
  };
  auto shares = [](std::vector<al::UeRadio>& ues) {
    std::vector<al::SliceRadioShare> slices(2);
    slices[0].prb_cap_ul = 30;
    slices[0].ues = {&ues[0], &ues[2]};
    slices[1].prb_cap_ul = 20;
    slices[1].ues = {&ues[1]};
    return slices;
  };

  auto a_ues = build();
  load(a_ues);
  auto a_slices = shares(a_ues);
  am::Rng a_rng(77);
  std::vector<al::DirectionTti> allocating;
  for (int t = 0; t < 40; ++t) {
    for (auto& ue : a_ues) ue.step_fading(a_rng);
    allocating.push_back(al::run_direction_tti(a_slices, true, static_cast<double>(t), a_rng));
  }

  auto b_ues = build();
  load(b_ues);
  auto b_slices = shares(b_ues);
  am::Rng b_rng(77);
  al::TtiScratch scratch;
  for (int t = 0; t < 40; ++t) {
    for (auto& ue : b_ues) ue.step_fading(b_rng);
    al::run_direction_tti(b_slices, true, static_cast<double>(t), b_rng, scratch);
    const auto& ref = allocating[static_cast<std::size_t>(t)];
    ASSERT_EQ(scratch.delivered_bits, ref.delivered_bits) << "tti " << t;
    ASSERT_EQ(scratch.tb_total, ref.tb_total);
    ASSERT_EQ(scratch.tb_err, ref.tb_err);
    ASSERT_EQ(scratch.completed.size(), ref.completed.size());
    for (std::size_t s = 0; s < ref.completed.size(); ++s) {
      // Same UE by position (a_ues and b_ues are parallel arrays).
      const auto a_idx = ref.completed[s].first - &a_ues[0];
      const auto b_idx = scratch.completed[s].ue - &b_ues[0];
      ASSERT_EQ(a_idx, b_idx);
      const auto& span = scratch.completed[s];
      ASSERT_EQ(span.count, ref.completed[s].second.size());
      for (std::uint32_t i = 0; i < span.count; ++i) {
        ASSERT_EQ(scratch.ids[span.begin + i], ref.completed[s].second[i]);
      }
    }
  }
}

TEST(Scheduler, OneUeSliceEqualsDirectTti) {
  // The episode runs its one foreground UE without the scheduler: a
  // one-slice, one-UE run_direction_tti must equal run_tti_into with grant
  // min(cap, kTotalPrbs) and the slice's MCS offset — same stats, same
  // completed ids, same RNG consumption — in both directions, in TTIs that
  // transmit and in TTIs the HARQ round trip blocks.
  al::RadioParams lossy = ideal_radio();
  lossy.la_margin_db = 1.0;  // errors often enough to block
  lossy.harq_rtt_ttis = 3;
  for (const bool uplink : {true, false}) {
    for (const int cap : {60, 50, 17, 0}) {
      for (const int offset : {0, 3}) {
        // At 4 m the SINR sits mid-ladder, below the MCS cap.
        al::UeRadio sched_ue(lossy, lossy, 4.0, 2.5, 0.9, 2);
        al::UeRadio direct_ue(lossy, lossy, 4.0, 2.5, 0.9, 2);
        std::vector<al::SliceRadioShare> slices(1);
        (uplink ? slices[0].prb_cap_ul : slices[0].prb_cap_dl) = cap;
        (uplink ? slices[0].mcs_offset_ul : slices[0].mcs_offset_dl) = offset;
        slices[0].ues = {&sched_ue};
        am::Rng sched_rng(100 + static_cast<std::uint64_t>(cap));
        am::Rng direct_rng(100 + static_cast<std::uint64_t>(cap));
        al::TtiScratch scratch;
        std::vector<std::uint64_t> ids;
        int sent = 0;
        int blocked = 0;
        for (int t = 0; t < 600; ++t) {
          const double now = static_cast<double>(t);
          if (t % 6 == 0) {
            const double bits = 2000.0 + 500.0 * static_cast<double>(t % 17);
            for (al::UeRadio* ue : {&sched_ue, &direct_ue}) {
              (uplink ? ue->ul_queue() : ue->dl_queue())
                  .push(static_cast<std::uint64_t>(t), bits, now, 2.0);
            }
          }
          sched_ue.step_fading(sched_rng);
          direct_ue.step_fading(direct_rng);
          const al::RadioQueue& queue = uplink ? direct_ue.ul_queue() : direct_ue.dl_queue();
          const bool had_data = queue.has_data(now);
          al::run_direction_tti(slices, uplink, now, sched_rng, scratch);
          ids.clear();
          const al::TtiStats direct = direct_ue.run_tti_into(
              uplink, now, std::min(cap, al::kTotalPrbs), offset, direct_rng, ids);
          ASSERT_EQ(scratch.delivered_bits, direct.delivered_bits) << "tti " << t;
          ASSERT_EQ(scratch.tb_total, direct.tb_total) << "tti " << t;
          ASSERT_EQ(scratch.tb_err, direct.tb_err) << "tti " << t;
          std::vector<std::uint64_t> sched_ids;
          for (const auto& span : scratch.completed) {
            ASSERT_EQ(span.ue, &sched_ue);
            sched_ids.insert(sched_ids.end(), scratch.ids.begin() + span.begin,
                             scratch.ids.begin() + span.begin + span.count);
          }
          ASSERT_EQ(sched_ids, ids) << "tti " << t;
          sent += direct.tb_total - direct.tb_err;
          if (had_data && cap > 0 && direct.tb_total == 0) ++blocked;
        }
        EXPECT_EQ(sched_rng.next_u64(), direct_rng.next_u64())
            << "uplink " << uplink << " cap " << cap << " offset " << offset;
        if (cap > 0) {
          EXPECT_GT(sent, 0) << "cap " << cap;
          EXPECT_GT(blocked, 0) << "cap " << cap << ": no HARQ-blocked TTI";
        }
      }
    }
  }
}

TEST(UeRadio, SetDistanceRefreshesCachedLinkBudget) {
  // The cached pathloss must follow mobility: after set_distance the TTI
  // outcome must match a fresh UE constructed at the new distance.
  am::Rng rng_a(21), rng_b(21);
  al::UeRadio moved(ideal_radio(), ideal_radio(), 1.0, 0.0, 0.9);
  al::UeRadio fresh(ideal_radio(), ideal_radio(), 9.0, 0.0, 0.9);
  moved.ul_queue().set_full_buffer(true);
  fresh.ul_queue().set_full_buffer(true);
  moved.set_distance(9.0);
  const auto out_moved = moved.run_tti(true, 0.0, 25, 0, rng_a);
  const auto out_fresh = fresh.run_tti(true, 0.0, 25, 0, rng_b);
  EXPECT_EQ(out_moved.mcs, out_fresh.mcs);
  EXPECT_EQ(out_moved.sinr_db, out_fresh.sinr_db);  // bitwise
  EXPECT_EQ(out_moved.delivered_bits, out_fresh.delivered_bits);
}

TEST(StaleCqi, RaisesErrorRateUnderFading) {
  // With ideal CQI the error rate sits near the LA margin's design point;
  // with a stale CQI under fading it rises (Table 1's real-vs-sim PER gap).
  auto measure_per = [](int lag) {
    am::Rng rng(11);
    al::UeRadio ue(ideal_radio(), ideal_radio(), 1.0, 2.5, 0.9, lag);
    ue.ul_queue().set_full_buffer(true);
    int err = 0;
    int total = 0;
    for (int t = 0; t < 30000; ++t) {
      ue.step_fading(rng);
      const auto out = ue.run_tti(true, static_cast<double>(t), 25, 0, rng);
      err += out.tb_err;
      total += out.tb_total;
    }
    return static_cast<double>(err) / static_cast<double>(total);
  };
  EXPECT_GT(measure_per(4), measure_per(0));
}
