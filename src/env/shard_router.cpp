#include "env/shard_router.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "env/farm_controller.hpp"

namespace atlas::env {

ShardRouter::ShardRouter(std::size_t shards, EnvServiceOptions options) {
  if (shards == 0) {
    throw std::invalid_argument("ShardRouter: shard count must be >= 1");
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<EnvService>(options));
  }
  routes_.store(std::make_shared<const RouteTable>(), std::memory_order_release);
}

std::size_t ShardRouter::pick_shard_locked() const {
  // Least-loaded placement: a tenant registered during a traffic skew should
  // not land on the shard already drowning in queries. Ties fall back to the
  // fewest registered backends, then the lowest index, so an idle router
  // still places deterministically (round-robin-like spread).
  std::size_t best = 0;
  std::size_t best_load = shards_[0]->outstanding_queries();
  std::size_t best_backends = shards_[0]->backend_count();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    const std::size_t load = shards_[i]->outstanding_queries();
    const std::size_t backends = shards_[i]->backend_count();
    if (load < best_load || (load == best_load && backends < best_backends)) {
      best = i;
      best_load = load;
      best_backends = backends;
    }
  }
  return best;
}

BackendId ShardRouter::register_backend(std::shared_ptr<const EnvBackend> backend) {
  std::scoped_lock lock(routes_mutex_);
  const auto current = routes_.load(std::memory_order_acquire);
  const auto global = static_cast<BackendId>(current->size());
  const auto shard = static_cast<std::uint32_t>(pick_shard_locked());
  const BackendId local = shards_[shard]->register_backend(std::move(backend));
  auto next = std::make_shared<RouteTable>(*current);
  next->push_back(Route{shard, local});
  routes_.store(std::shared_ptr<const RouteTable>(std::move(next)), std::memory_order_release);
  return global;
}

ShardRouter::Route ShardRouter::route_at(BackendId id) const {
  const auto routes = routes_.load(std::memory_order_acquire);
  if (id >= routes->size()) {
    throw std::out_of_range("ShardRouter: unknown backend id " + std::to_string(id));
  }
  return (*routes)[id];
}

EnvQuery ShardRouter::to_local(const EnvQuery& query, const Route& route) const {
  EnvQuery local = query;
  local.backend = route.local;
  return local;
}

std::size_t ShardRouter::backend_count() const {
  return routes_.load(std::memory_order_acquire)->size();
}

const std::string& ShardRouter::backend_name(BackendId id) const {
  const Route route = route_at(id);
  return shards_[route.shard]->backend_name(route.local);
}

BackendKind ShardRouter::backend_kind(BackendId id) const {
  const Route route = route_at(id);
  return shards_[route.shard]->backend_kind(route.local);
}

EpisodeResult ShardRouter::run(const EnvQuery& query) {
  const Route route = route_at(query.backend);
  return shards_[route.shard]->run(to_local(query, route));
}

QueryHandle ShardRouter::submit(EnvQuery query) {
  const Route route = route_at(query.backend);
  return shards_[route.shard]->submit(to_local(query, route));
}

std::size_t ShardRouter::outstanding_queries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->outstanding_queries();
  return total;
}

std::vector<EpisodeResult> ShardRouter::run_batch(std::span<const EnvQuery> queries) {
  std::vector<EpisodeResult> results(queries.size());
  if (queries.empty()) return results;
  // Fan out via the owning shards' pools and harvest positionally; shards
  // execute their slices concurrently with each other. A query whose owning
  // shard's pool THIS thread is a worker of runs inline (caller-runs):
  // submitting it would park this worker on a future that sits behind it in
  // its own queue — the nested-batch deadlock EnvService::run_batch avoids
  // via ThreadPool's fallback.
  std::vector<std::pair<std::size_t, QueryHandle>> handles;
  handles.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Route route = route_at(queries[i].backend);
    EnvService& service = *shards_[route.shard];
    if (service.pool().on_worker_thread()) {
      results[i] = service.run(to_local(queries[i], route));
    } else {
      handles.emplace_back(i, service.submit(to_local(queries[i], route)));
    }
  }
  for (auto& [slot, handle] : handles) results[slot] = handle.get();
  return results;
}

BackendStats ShardRouter::backend_stats(BackendId id) const {
  const Route route = route_at(id);
  return shards_[route.shard]->backend_stats(route.local);
}

EnvServiceStats ShardRouter::stats() const {
  EnvServiceStats total;
  if (const auto farm = farm_.load(std::memory_order_acquire)) {
    total.farm = farm->view();
  }
  const auto routes = routes_.load(std::memory_order_acquire);
  total.backends.reserve(routes->size());
  for (const Route& route : *routes) {
    total.add_backend(shards_[route.shard]->backend_stats(route.local));
  }
  // Serving telemetry merges exactly (log-scale buckets sum), so the router
  // reports farm-wide latency/queue-depth quantiles, not per-shard ones.
  for (const auto& shard : shards_) {
    const EnvServiceStats shard_stats = shard->stats();
    total.query_latency_ns.merge(shard_stats.query_latency_ns);
    total.queue_depth.merge(shard_stats.queue_depth);
    total.rpc_service_ns.merge(shard_stats.rpc_service_ns);
  }
  return total;
}

void ShardRouter::attach_farm(std::shared_ptr<const FarmState> farm) {
  farm_.store(std::move(farm), std::memory_order_release);
}

void ShardRouter::reset_stats() {
  for (const auto& shard : shards_) shard->reset_stats();
}

}  // namespace atlas::env
