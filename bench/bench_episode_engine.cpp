// Episode-engine throughput bench: episodes/sec of the innermost loop every
// Atlas stage fans out over (offline BO training, online learning, and every
// per-figure bench all reduce to thousands of run_episode calls).
//
// Workloads cover the axes that stress different parts of the engine:
//   - short vs long episodes        (event-queue + fixed-cadence stepper cost)
//   - traces off vs on              (per-frame bookkeeping)
//   - 0/4/16/64/256 background UEs  (SoA batch sweep vs per-UE scheduler)
//   - real profile with mobility    (fading + random-walk stepper)
//   - the shapes pipebench runs most (20-s simulator and 60-s real-network
//     episodes at traffic 1, no mobility: quiet skips, fading catch-up)
//
// Writes BENCH_episode_engine.json (override with ATLAS_BENCH_OUT) so CI can
// track the perf trajectory PR over PR. Each scenario carries a
// `baseline_ratio` against the pre-SoA-tier numbers committed with PR 6
// (null for scenarios that postdate that baseline), and the artifact records
// the machine context (cores, compiler, build flavor) so cross-host numbers
// are never compared as if they were same-host.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "env/episode.hpp"
#include "env/profile.hpp"

namespace {

struct Scenario {
  std::string name;
  bool real_profile = false;
  double duration_s = 60.0;
  bool traces = false;
  int extra_users = 0;
  bool random_walk = false;
  int traffic = 2;
  /// episodes/sec committed BEFORE the vectorized background tier (PR 6,
  /// same scale=2 protocol). 0 = no pre-tier baseline exists.
  double baseline_eps = 0.0;
};

struct Measurement {
  std::string name;
  std::size_t episodes = 0;
  double seconds = 0.0;
  double eps = 0.0;
  std::size_t frames = 0;
  double baseline_eps = 0.0;
  double baseline_ratio = 0.0;  ///< eps / baseline_eps (0 = no baseline).
};

Measurement run_scenario(const Scenario& sc, double scale) {
  const atlas::env::NetworkProfile profile =
      sc.real_profile ? atlas::env::real_network_profile() : atlas::env::simulator_profile();
  atlas::env::SliceConfig config;
  if (sc.extra_users > 0) {
    // Leave PRBs for the background slice so its UEs actually transmit —
    // otherwise the scenario degenerates to fading bookkeeping.
    config.bandwidth_ul = 30;
    config.bandwidth_dl = 30;
  }
  atlas::env::Workload wl;
  wl.traffic = sc.traffic;
  wl.duration_ms = sc.duration_s * 1e3;
  wl.collect_traces = sc.traces;
  wl.extra_users = sc.extra_users;
  wl.random_walk = sc.random_walk;

  // Warm up allocators/caches with one episode, then run for a minimum wall
  // time AND a minimum episode count so short scenarios still average well.
  wl.seed = 1;
  auto warm = atlas::env::run_episode(profile, config, wl);
  const double min_seconds = 1.0 * scale;
  const std::size_t min_episodes = 3;
  Measurement m;
  m.name = sc.name;
  m.frames = warm.frames_completed;
  m.baseline_eps = sc.baseline_eps;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds || m.episodes < min_episodes) {
    wl.seed = 100 + m.episodes;  // fresh seed per episode: no memoization anywhere
    const auto result = atlas::env::run_episode(profile, config, wl);
    if (result.frames_completed == 0) std::abort();  // engine regression guard
    ++m.episodes;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  m.seconds = elapsed;
  m.eps = static_cast<double>(m.episodes) / elapsed;
  if (m.baseline_eps > 0.0) m.baseline_ratio = m.eps / m.baseline_eps;
  return m;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string build_type() {
#if defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

}  // namespace

int main() {
  const auto opts = atlas::common::bench_options();
  bench::banner("Episode-engine throughput (episodes/sec)",
                "engine hot path: DES + MAC/PHY + transport + edge");

  const std::vector<Scenario> scenarios = {
      {"sim_short_10s", false, 10.0, false, 0, false, 2, 382.687},
      {"sim_long_60s", false, 60.0, false, 0, false, 2, 64.7723},
      {"sim_long_60s_traces", false, 60.0, true, 0, false, 2, 65.3231},
      {"sim_long_60s_bg4", false, 60.0, false, 4, false, 2, 21.2947},
      {"sim_long_60s_bg16", false, 60.0, false, 16, false, 2, 9.83251},
      {"sim_long_60s_bg64", false, 60.0, false, 64, false, 2, 0.0},
      {"sim_long_60s_bg256", false, 60.0, false, 256, false, 2, 0.0},
      {"real_long_60s_mobility", true, 60.0, false, 0, true, 2, 37.8155},
      {"sim_20s_t1", false, 20.0, false, 0, false, 1, 0.0},
      {"real_long_60s_t1", true, 60.0, false, 0, false, 1, 0.0},
  };

  std::vector<Measurement> results;
  atlas::common::Table table(
      {"scenario", "episodes", "wall s", "episodes/s", "frames/ep", "vs baseline"});
  for (const auto& sc : scenarios) {
    const Measurement m = run_scenario(sc, opts.scale);
    table.add_row({m.name, std::to_string(m.episodes), atlas::common::fmt(m.seconds),
                   atlas::common::fmt(m.eps, 1), std::to_string(m.frames),
                   m.baseline_ratio > 0.0 ? atlas::common::fmt(m.baseline_ratio, 2) + "x" : "-"});
    results.push_back(m);
  }
  bench::emit(table, opts);

  const std::string out_path =
      bench::bench_output_path("BENCH_episode_engine.json", "ATLAS_BENCH_OUT");
  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"episode_engine\",\n  \"unit\": \"episodes_per_second\",\n"
      << "  \"machine\": {\"cores\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << compiler_string() << "\", \"build_type\": \"" << build_type()
      << "\", \"bench_scale\": " << opts.scale << "},\n"
      << "  \"baseline\": \"pre-SoA background tier (PR 6 artifact, same protocol)\",\n"
      << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i];
    out << "    {\"name\": \"" << m.name << "\", \"episodes\": " << m.episodes
        << ", \"wall_seconds\": " << m.seconds << ", \"episodes_per_second\": " << m.eps
        << ", \"frames_per_episode\": " << m.frames << ", \"baseline_eps\": ";
    if (m.baseline_eps > 0.0) {
      out << m.baseline_eps << ", \"baseline_ratio\": " << m.baseline_ratio;
    } else {
      out << "null, \"baseline_ratio\": null";
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
