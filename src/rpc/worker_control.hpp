#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "env/farm_controller.hpp"
#include "rpc/remote_backend.hpp"
#include "rpc/transport.hpp"

namespace atlas::rpc {

struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-attempt RPC timeout for data-plane backends built via make_backend.
  double timeout_ms = 30000.0;
  /// Deadline for hello / heartbeat round-trips.
  double control_timeout_ms = 5000.0;
  int max_retries = 2;
  /// Test seam shared by the control connection AND every data-plane
  /// backend: loopback endpoints instead of TCP (see RemoteBackendOptions).
  std::function<std::unique_ptr<Transport>()> transport_factory;
};

/// The wire adapter putting one remote episode worker behind the
/// transport-agnostic `env::WorkerControl` contract the FarmController
/// drives. Control traffic (hello / heartbeat) rides
/// a dedicated RemoteBackend connection, so a worker drowning in episodes
/// still answers heartbeats from its read thread; each announced backend
/// gets its own data-plane RemoteBackend via make_backend.
class RemoteWorkerControl final : public env::WorkerControl {
 public:
  explicit RemoteWorkerControl(RemoteWorkerOptions options);

  const std::string& address() const noexcept override { return address_; }

  env::WorkerAnnounce hello() override { return control_->hello(); }
  env::WorkerHealth heartbeat() override { return control_->heartbeat(); }

  std::shared_ptr<const env::EnvBackend> make_backend(const env::WorkerBackendInfo& info,
                                                      env::BackendId remote_backend) override;

  /// Scrape the worker's OWN serving stats (per-backend counters + service
  /// telemetry) — the wire stats snapshot, for per-worker reporting.
  env::EnvServiceStats worker_stats() const { return control_->fetch_worker_stats(); }

 private:
  RemoteWorkerOptions options_;
  std::string address_;
  std::shared_ptr<RemoteBackend> control_;
};

}  // namespace atlas::rpc
