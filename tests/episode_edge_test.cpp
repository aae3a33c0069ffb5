#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "env/environment.hpp"
#include "env/multi_slice.hpp"

namespace ae = atlas::env;

// Edge-of-envelope episodes: the simulator must stay well-defined (no hangs,
// no NaNs, sane accounting) at the extremes of the configuration and
// workload spaces that Bayesian optimization will inevitably probe.

TEST(EpisodeEdge, MinimalConfigurationStillRuns) {
  ae::Simulator sim;
  ae::SliceConfig starved;
  starved.bandwidth_ul = 0;     // clamped to the 6-PRB connectivity floor
  starved.bandwidth_dl = 0;     // clamped to 3
  starved.mcs_offset_ul = 10;   // maximally conservative MCS
  starved.mcs_offset_dl = 10;
  starved.backhaul_mbps = 0;    // residual meter trickle
  starved.cpu_ratio = 0;        // residual docker share
  ae::Workload wl;
  wl.duration_ms = 20000.0;
  wl.seed = 2;
  const auto result = sim.run(starved, wl);
  // The slice crawls but must not wedge: QoE is (very) low, not undefined.
  EXPECT_LE(result.qoe(300.0), 0.3);
  for (double l : result.latencies_ms) {
    ASSERT_GT(l, 0.0);
    ASSERT_TRUE(std::isfinite(l));
  }
}

TEST(EpisodeEdge, VeryShortEpisodeCompletesNothingGracefully) {
  ae::Simulator sim;
  ae::Workload wl;
  wl.duration_ms = 5.0;  // shorter than any frame's pipeline
  const auto result = sim.run(ae::SliceConfig{}, wl);
  EXPECT_EQ(result.frames_completed, 0u);
  EXPECT_DOUBLE_EQ(result.qoe(300.0), 0.0);  // outage semantics
}

TEST(EpisodeEdge, UplinkTransportBlocksAtLeastOnePerFrame) {
  ae::Simulator sim;
  ae::Workload wl;
  wl.duration_ms = 10000.0;
  wl.seed = 5;
  const auto result = sim.run(ae::SliceConfig{}, wl);
  EXPECT_GE(result.ul_tb_total, static_cast<int>(result.frames_completed));
  EXPECT_GE(result.dl_tb_total, static_cast<int>(result.frames_completed));
  EXPECT_LE(result.ul_tb_err, result.ul_tb_total);
}

TEST(EpisodeEdge, ExtremeDistanceDegradesButStaysAlive) {
  ae::RealNetwork real;
  ae::Workload wl;
  wl.duration_ms = 20000.0;
  wl.distance_m = 10.0;
  wl.seed = 7;
  const auto result = real.run(ae::SliceConfig{}, wl);
  // At 10 m the real link crawls, but frames still complete (paper Fig. 10
  // measures discrepancy there, so both sides must produce samples).
  EXPECT_GT(result.frames_completed, 5u);
}

TEST(EpisodeEdge, RandomWalkMobilityRuns) {
  ae::RealNetwork real;
  ae::Workload wl;
  wl.duration_ms = 10000.0;
  wl.random_walk = true;
  wl.seed = 11;
  const auto result = real.run(ae::SliceConfig{}, wl);
  EXPECT_GT(result.frames_completed, 10u);
}

TEST(EpisodeEdge, TracingUnderHeavyTraffic) {
  ae::RealNetwork real;
  ae::Workload wl;
  wl.duration_ms = 10000.0;
  wl.traffic = 4;
  wl.collect_traces = true;
  wl.seed = 13;
  const auto result = real.run(ae::SliceConfig{}, wl);
  ASSERT_EQ(result.traces.size(), result.frames_completed);
  for (const auto& t : result.traces) {
    ASSERT_GE(t.queueing(), -1e-9);
    ASSERT_GT(t.compute(), 0.0);
  }
}

TEST(EpisodeEdge, MaxMcsOffsetsOnlySlowTheSlice) {
  ae::Simulator sim;
  ae::SliceConfig plain;
  ae::SliceConfig offset = plain;
  offset.mcs_offset_ul = 10;
  offset.mcs_offset_dl = 10;
  ae::Workload wl;
  wl.duration_ms = 10000.0;
  wl.seed = 17;
  EXPECT_GT(sim.run(offset, wl).latency_summary().mean,
            sim.run(plain, wl).latency_summary().mean);
}

TEST(EpisodeEdge, FractionalPrbConfigsRound) {
  ae::Simulator sim;
  ae::SliceConfig frac;
  frac.bandwidth_ul = 9.4;   // rounds to 9
  frac.bandwidth_dl = 3.6;   // rounds to 4
  frac.mcs_offset_ul = 0.49; // rounds to 0
  ae::Workload wl;
  wl.duration_ms = 6000.0;
  EXPECT_GT(sim.run(frac, wl).frames_completed, 10u);
}

TEST(EpisodeEdge, NonFiniteOrNonPositiveDurationIsRejected) {
  // run_until(NaN or +inf) never returns, and the wire decoder passes the
  // duration through unchecked: an unchecked episode would hold a worker's
  // pool thread for good.
  ae::Simulator sim;
  const std::vector<ae::SliceSpec> slices(2);
  for (const double duration : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    ae::Workload wl;
    wl.duration_ms = duration;
    EXPECT_THROW((void)sim.run(ae::SliceConfig{}, wl), std::invalid_argument) << duration;
    EXPECT_THROW((void)ae::run_multi_slice_episode(ae::simulator_profile(), slices, duration, 1),
                 std::invalid_argument)
        << duration;
  }
}

TEST(EpisodeEdge, NanConfigFieldEndsInATypedError) {
  // SliceConfig::clamped() passes NaN through; the first event scheduled at
  // a NaN time must fail cleanly instead of ordering the heap by NaN.
  ae::Simulator sim;
  ae::Workload wl;
  wl.duration_ms = 5000.0;
  ae::SliceConfig nan_backhaul;
  nan_backhaul.backhaul_mbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)sim.run(nan_backhaul, wl), std::invalid_argument);
  ae::SliceConfig nan_cpu;
  nan_cpu.cpu_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)sim.run(nan_cpu, wl), std::invalid_argument);
}
