#pragma once

#include <vector>

#include "env/environment.hpp"
#include "env/episode.hpp"

namespace atlas::env {

/// One tenant's slice in a multi-slice deployment: its own configuration,
/// workload intensity, and UE placement. Each slice gets an isolated SPGW-U
/// meter and edge container (as in the paper's prototype, §7.1); slices
/// couple only through the shared 50-PRB carrier, where per-slice caps
/// enforce radio isolation.
struct SliceSpec {
  SliceConfig config;
  int traffic = 1;
  double distance_m = 1.0;
};

/// Per-slice results of a shared episode.
struct MultiSliceResult {
  std::vector<EpisodeResult> per_slice;
};

/// Run all slices concurrently on one physical network for `duration_ms`
/// (finite and > 0, or std::invalid_argument). Deterministic per seed.
/// Slices whose PRB caps sum beyond the carrier are served in declaration
/// order (earlier slices have scheduling priority).
///
/// This is the substrate for the paper's scalability argument (§10): one
/// Atlas instance per slice can be trained independently because the
/// isolation keeps each slice's QoE a function of its own configuration.
MultiSliceResult run_multi_slice_episode(const NetworkProfile& profile,
                                         const std::vector<SliceSpec>& slices,
                                         double duration_ms, std::uint64_t seed);

/// One tenant's view of a multi-slice deployment as a queryable environment:
/// the queried (config, workload) drives the TARGET slice (declared first,
/// i.e. with scheduling priority), while `background` tenants keep fixed
/// configurations. This is how per-slice Atlas instances and the EnvService
/// backend registry see a shared carrier — one handle type for single-slice
/// simulators, the real network, and multi-slice episodes alike.
///
/// Workload fields the shared-carrier runner cannot express (`random_walk`,
/// `extra_users`, `collect_traces`) are rejected with std::invalid_argument
/// rather than silently ignored.
class MultiSliceEnvironment final : public NetworkEnvironment {
 public:
  MultiSliceEnvironment(NetworkProfile profile, std::vector<SliceSpec> background);

  EpisodeResult run(const SliceConfig& config, const Workload& workload) const override;

  std::size_t tenant_count() const noexcept { return background_.size() + 1; }

 private:
  NetworkProfile profile_;
  std::vector<SliceSpec> background_;
};

}  // namespace atlas::env
