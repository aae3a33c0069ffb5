#pragma once

#include <cstdint>
#include <vector>

#include "env/profile.hpp"
#include "env/slice_config.hpp"
#include "env/trace.hpp"
#include "math/stats.hpp"

namespace atlas::env {

/// One configuration interval's workload description.
struct Workload {
  int traffic = 1;              ///< On-the-fly frame window ("user traffic" 1-4).
  double duration_ms = 60000.0; ///< Episode length (paper: 60 s per configuration).
  double distance_m = 1.0;      ///< UE-eNB line-of-sight distance.
  bool random_walk = false;     ///< Random-walk mobility (Fig. 10's "random").
  int extra_users = 0;          ///< Background-slice users (Fig. 11 isolation test).
  bool collect_traces = false;  ///< Record per-frame pipeline timestamps (§7.2 tracer).
  std::uint64_t seed = 1;       ///< Episode RNG seed (fully deterministic given this).
};

/// Everything measured during one episode.
struct EpisodeResult {
  atlas::math::Vec latencies_ms;  ///< End-to-end latency of each completed frame.
  std::size_t frames_completed = 0;
  int ul_tb_total = 0;  ///< Slice-UE uplink transport blocks attempted.
  int ul_tb_err = 0;
  int dl_tb_total = 0;
  int dl_tb_err = 0;
  std::vector<FrameTrace> traces;  ///< Filled when Workload::collect_traces.

  /// QoE = Pr(latency <= threshold) over the episode (Eq. 6's probability).
  double qoe(double threshold_ms) const;
  atlas::math::Summary latency_summary() const;
};

/// Run one end-to-end episode: frames flow UE -> RAN(UL) -> switch -> SPGW-U
/// -> edge compute -> SPGW-U -> switch -> RAN(DL) -> UE under the given
/// profile, slice configuration, and workload. Deterministic per seed.
/// Throws std::invalid_argument unless workload.duration_ms is finite and > 0.
EpisodeResult run_episode(const NetworkProfile& profile, const SliceConfig& config,
                          const Workload& workload);

/// The Table 1 probes: ICMP-style ping RTT and full-buffer UL/DL throughput
/// and transport-block error rates, measured on the unsliced network.
struct NetworkPerformance {
  double ping_ms = 0.0;
  double ul_mbps = 0.0;
  double dl_mbps = 0.0;
  double ul_per = 0.0;
  double dl_per = 0.0;
};

NetworkPerformance measure_network_performance(const NetworkProfile& profile,
                                               double duration_ms, std::uint64_t seed);

}  // namespace atlas::env
