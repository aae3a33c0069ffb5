#pragma once

// The benchmark's workloads and the pass runner. A pass is one complete
// Atlas run on a freshly built serving stack: set-up (service, pools,
// backends; for the farm also servers, connections and admission), then the
// stages, then the output checks.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "atlas/pipeline.hpp"
#include "probe.hpp"

namespace pipebench {

namespace core = atlas::core;

/// In-process `AtlasPipeline` (all three stages), or stages 2 and 3 with
/// every simulator episode served by a loopback episode-RPC farm.
enum class Shape { kPipeline, kFarm };

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kPipeline;
  /// Stage option blocks; the farm shape runs only `stage2` and `stage3`.
  core::PipelineOptions options;
  /// In-process EnvService pool (pipeline) or ShardRouter shard pool (farm).
  std::size_t pool_threads = 1;
  std::size_t farm_workers = 0;   ///< Episode-RPC workers (farm only).
  std::size_t worker_threads = 0; ///< Pool threads of each worker (farm only).
  /// Run the whole process on one CPU. Set where a pass is one serial chain
  /// of thread hand-offs (its process CPU time is about its wall): on one
  /// CPU a hand-off is a local context switch, not the wake-up of an idle
  /// vCPU, whose latency is set by the host and changes with its load.
  bool one_cpu = false;
  /// Seconds one pass takes, with its checks, on the reference host (4
  /// cores, gcc 12, Release); sizes the pass count so a run lasts about
  /// `--seconds`.
  double nominal_pass_s = 1.0;

  bool runs_stage(int stage) const;  ///< stage in {1, 2, 3}
  std::size_t stage_iterations(int stage) const;
  /// Metered interactions the stage options imply: stage 1's online
  /// collection plus one real episode per stage-3 iteration.
  std::uint64_t expected_online_queries() const;
  /// Driver thread plus every pool thread the workload creates.
  std::size_t compute_threads() const;
};

/// Throws std::invalid_argument on an unknown name.
WorkloadSpec make_workload(const std::string& name);

/// Timing of one stage, read at its start and finish on the driver thread.
struct StageTiming {
  double wall_s = 0.0;
  double thread_cpu_s = 0.0;     ///< Driver-thread CPU over the stage.
  double driver_episode_s = 0.0; ///< Of which: episodes the driver executed itself.
};

struct PassResult {
  double setup_s = 0.0;  ///< Pass entry to the first stage's start.
  double wall_s = 0.0;   ///< First stage's start to the last stage's end.
  std::array<StageTiming, 3> stages;
  core::PipelineResult result;
  atlas::env::EnvServiceStats stats;  ///< Client-side accounting of this pass.
  std::uint64_t cache_entries = 0;    ///< Memo entries at the end (all services).
  std::uint64_t hash = 0;             ///< FNV-1a over every stage result.
};

/// Seed of pass `pass` of a run started with `--seed seed`.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass);

/// Stage options for one pass: the spec's blocks with seeds derived from
/// `pass_seed`.
core::PipelineOptions pass_options(const WorkloadSpec& spec, std::uint64_t pass_seed);

/// Probes used by a traced pass (null members = untraced).
struct Probes {
  Recorder* client = nullptr;  ///< Wraps the client the stages talk to.
  Recorder* worker = nullptr;  ///< Wraps each farm worker's simulator.
};

/// Run one pass. `in_process` runs a farm workload's stages on a local
/// EnvService instead (the bit-identity reference; same options and seeds).
PassResult run_pass(const WorkloadSpec& spec, std::uint64_t pass_seed, Probes probes = {},
                    bool in_process = false);

/// Build the pass's stack and stop at the first stage's start; returns the
/// set-up time, measured exactly as PassResult::setup_s.
double probe_setup(const WorkloadSpec& spec);

/// Output checks: exact accounting on every backend, no failed or rejected
/// query, metered interactions as the options imply. Empty = all passed.
std::vector<std::string> check_pass(const WorkloadSpec& spec, const PassResult& pass);

}  // namespace pipebench
