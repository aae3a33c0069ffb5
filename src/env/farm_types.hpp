#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/backend.hpp"

namespace atlas::env {

/// Control-plane value types shared by the wire codec (rpc/codec.hpp), the
/// worker-side RPC server, and the router-side FarmController. They describe
/// farm *membership* — what a worker hosts and how healthy it is — as plain
/// data, so the registry protocol stays transport-agnostic.

/// One backend a worker advertises. `params_digest`
/// is a caller-chosen fingerprint of the simulator parameterization; two
/// backends are interchangeable for placement/failover only when kind,
/// accepts_sim_params, and digest all match.
struct WorkerBackendInfo {
  std::string name;
  BackendKind kind = BackendKind::kOffline;
  bool accepts_sim_params = false;
  std::uint64_t params_digest = 0;

  /// Placement-equivalence key: workers advertising the same key can absorb
  /// each other's traffic without changing results.
  std::uint64_t equivalence_key() const noexcept {
    std::uint64_t h = params_digest * 0x9e3779b97f4a7c15ull;
    h ^= static_cast<std::uint64_t>(kind == BackendKind::kOnline ? 2 : 1) << 62;
    h ^= static_cast<std::uint64_t>(accepts_sim_params ? 1 : 0) << 61;
    return h;
  }
};

/// FNV-1a over the parameter vector's raw f64 bits: the canonical
/// `params_digest` for simulator backends. Workers configured with the same
/// SimParams digest identically, so a FarmController groups their backends
/// into one failover-equivalent pool regardless of which process computed it.
std::uint64_t params_digest(const SimParams& params);

/// What a worker says about itself when it joins (kHello reply).
struct WorkerAnnounce {
  std::vector<WorkerBackendInfo> backends;  ///< indexed by worker-local BackendId
};

/// Heartbeat payload (kHeartbeatAck): cheap liveness plus load gauges the
/// controller uses for rebalance decisions.
struct WorkerHealth {
  std::uint64_t outstanding = 0;  ///< episodes currently queued or running
  std::uint64_t episodes = 0;     ///< episodes executed since start
};

}  // namespace atlas::env
