#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "env/env_service.hpp"

namespace atlas::env {

class FarmState;  // env/farm_controller.hpp

/// Fans a `BackendId`-keyed address space across M independent `EnvService`
/// shards, so one process can drive thousands of per-slice Atlas instances
/// (one backend per tenant slice) without funnelling every query through a
/// single service's pool. Because the registry is polymorphic
/// (`EnvBackend`), a shard's backends may be in-process environments or
/// `rpc::RemoteBackend`s — one router transparently mixes local pools and
/// remote episode-RPC workers on other hosts.
///
/// Placement is least-loaded: a new backend goes to the shard with the
/// fewest outstanding queries at registration time (ties: fewest registered
/// backends, then lowest index — so an idle router places round-robin).
/// Each shard is a full EnvService (own thread pool, own accounting); the
/// router only translates ids and aggregates. All guarantees of EnvService
/// (ordered batches, one episode per query, metered online backends) hold
/// per shard and therefore globally:
///
///   ShardRouter router(/*shards=*/8);
///   for (auto& tenant : tenants) ids.push_back(router.add_simulator(tenant.params));
///   auto results = router.run_batch(queries);   // fans out across shards
///   auto stats = router.stats();                // global-id-ordered backends
class ShardRouter final : public EnvClient {
 public:
  /// `shards` EnvService instances, each built from `options` (so a 16-thread
  /// option on 8 shards is 128 workers total — size accordingly).
  explicit ShardRouter(std::size_t shards, EnvServiceOptions options = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Direct access to one shard service (e.g. to inspect its accounting).
  EnvService& shard(std::size_t index) { return *shards_.at(index); }
  /// The shard service owning a global backend id.
  EnvService& service_for(BackendId id) { return *shards_[route_at(id).shard]; }

  // ---- backend registry (global ids) ----------------------------------------

  using EnvClient::register_backend;
  BackendId register_backend(std::shared_ptr<const EnvBackend> backend) override;

  std::size_t backend_count() const override;
  const std::string& backend_name(BackendId id) const override;
  BackendKind backend_kind(BackendId id) const override;

  // ---- queries (global backend ids) -----------------------------------------

  using EnvClient::run;
  EpisodeResult run(const EnvQuery& query) override;
  /// Enqueue on the owning shard's pool; the handle is a plain EnvService one.
  QueryHandle submit(EnvQuery query) override;
  /// Fan the batch out across the owning shards' pools; results are
  /// positionally ordered like EnvService::run_batch.
  std::vector<EpisodeResult> run_batch(std::span<const EnvQuery> queries) override;

  // ---- accounting (aggregated) ----------------------------------------------

  BackendStats backend_stats(BackendId id) const override;
  /// Aggregate across shards; `backends` is ordered by GLOBAL backend id.
  /// When a FarmController is attached, `stats().farm` carries its counters.
  EnvServiceStats stats() const override;
  void reset_stats() override;

  /// Attach a farm's shared counter block (done by the FarmController ctor);
  /// subsequent stats() snapshots report it as `EnvServiceStats::farm`. The
  /// state outlives the controller, so a post-shutdown stats() still shows
  /// the farm's history.
  void attach_farm(std::shared_ptr<const FarmState> farm);

  /// Outstanding queries summed across shards.
  std::size_t outstanding_queries() const override;

 private:
  struct Route {
    std::uint32_t shard = 0;
    BackendId local = 0;
  };
  using RouteTable = std::vector<Route>;

  Route route_at(BackendId id) const;
  /// Rewrite the global backend id to the owning shard's local id.
  EnvQuery to_local(const EnvQuery& query, const Route& route) const;
  /// Least-loaded shard by outstanding queries (routes_mutex_ held).
  std::size_t pick_shard_locked() const;

  std::vector<std::unique_ptr<EnvService>> shards_;
  mutable std::mutex routes_mutex_;  ///< Serializes registrations only.
  std::atomic<std::shared_ptr<const RouteTable>> routes_;
  std::atomic<std::shared_ptr<const FarmState>> farm_;
};

}  // namespace atlas::env
