#include "env/env_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace atlas::env {

namespace {

constexpr std::size_t kMaxCacheShards = 16;
/// Below this many entries per stripe, striping costs exact-LRU semantics
/// without buying contention relief, so small caches stay single-striped.
constexpr std::size_t kMinEntriesPerShard = 64;

/// Eviction candidates examined from the cold end of the LRU list. Among
/// them the cheapest-to-recompute entry goes first (sampled cost-aware LRU);
/// with uniform costs this degenerates to exact LRU.
constexpr std::size_t kEvictionScan = 8;

std::size_t resolve_shard_count(const EnvServiceOptions& options) {
  if (options.cache_capacity == 0) return 1;
  if (options.cache_shards != 0) {
    return std::min(options.cache_shards, options.cache_capacity);
  }
  std::size_t shards = 1;
  while (shards < kMaxCacheShards &&
         options.cache_capacity / (shards * 2) >= kMinEntriesPerShard) {
    shards *= 2;
  }
  return shards;
}

/// Counts a query as outstanding for the lifetime of its execution.
class OutstandingGuard {
 public:
  explicit OutstandingGuard(std::atomic<std::int64_t>& counter) : counter_(&counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  OutstandingGuard(const OutstandingGuard&) = delete;
  OutstandingGuard& operator=(const OutstandingGuard&) = delete;
  ~OutstandingGuard() { counter_->fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t>* counter_;
};

/// NaN never equals itself, so an entry stored under a key holding one could
/// never be found or evicted (eviction looks entries up by their LRU key).
/// Such keys stay out of the memo.
bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

}  // namespace

std::size_t EnvService::QueryKeyHash::operator()(const QueryKey& key) const noexcept {
  std::size_t h = std::hash<BackendId>{}(key.backend);
  for (double v : key.values) {
    // splitmix-style combine over the raw bit patterns.
    std::size_t x = std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= x ^ (x >> 31);
    h *= 0x100000001b3ULL;
  }
  return h;
}

EnvService::EnvService(EnvServiceOptions options)
    : options_(options), pool_(options.threads) {
  const std::size_t shard_count = resolve_shard_count(options_);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
  shard_capacity_ = std::max<std::size_t>(1, options_.cache_capacity / shard_count);
  registry_.store(std::make_shared<const RegistrySnapshot>(), std::memory_order_release);
}

std::size_t EnvService::outstanding_queries() const noexcept {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(0, outstanding_.load(std::memory_order_relaxed)));
}

BackendId EnvService::register_backend(std::shared_ptr<const EnvBackend> backend) {
  if (backend == nullptr) {
    throw std::invalid_argument("EnvService: null backend");
  }
  std::scoped_lock lock(registry_mutex_);
  Backend& entry = backends_.emplace_back();
  entry.impl = std::move(backend);
  // Publish a fresh snapshot; in-flight readers keep the old one alive.
  auto snapshot = std::make_shared<RegistrySnapshot>();
  snapshot->reserve(backends_.size());
  for (Backend& b : backends_) snapshot->push_back(&b);
  registry_.store(std::shared_ptr<const RegistrySnapshot>(std::move(snapshot)),
                  std::memory_order_release);
  return static_cast<BackendId>(backends_.size() - 1);
}

std::size_t EnvService::backend_count() const {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  return snapshot->size();
}

const std::string& EnvService::backend_name(BackendId id) const {
  return backend_at(id).impl->name();
}

BackendKind EnvService::backend_kind(BackendId id) const { return backend_at(id).impl->kind(); }

EnvService::Backend& EnvService::backend_at(BackendId id) const {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  if (id >= snapshot->size()) {
    throw std::out_of_range("EnvService: unknown backend id " + std::to_string(id));
  }
  return *(*snapshot)[id];  // deque storage: pointer stays valid as the registry grows
}

EnvService::CacheShard& EnvService::shard_for(std::size_t hash) const {
  // The low bits pick the unordered_map bucket; mix in the high bits for the
  // stripe so one stripe does not own whole bucket ranges.
  return *shards_[(hash ^ (hash >> 16)) % shards_.size()];
}

EnvService::QueryKey EnvService::make_key(const EnvQuery& query) {
  QueryKey key;
  key.backend = query.backend;
  auto& v = key.values;
  v = query.config.to_vec();
  v.push_back(static_cast<double>(query.workload.traffic));
  v.push_back(query.workload.duration_ms);
  v.push_back(query.workload.distance_m);
  v.push_back(query.workload.random_walk ? 1.0 : 0.0);
  v.push_back(static_cast<double>(query.workload.extra_users));
  // Encode the 64-bit seed losslessly (a double only carries 53 bits).
  v.push_back(static_cast<double>(query.workload.seed & 0xffffffffULL));
  v.push_back(static_cast<double>(query.workload.seed >> 32));
  if (query.sim_params) {
    v.push_back(1.0);
    const auto params = query.sim_params->to_vec();
    v.insert(v.end(), params.begin(), params.end());
  }
  return key;
}

void EnvService::evict_locked(CacheShard& shard) {
  while (shard.entries.size() > shard_capacity_ && !shard.lru.empty()) {
    // Sampled cost-aware LRU: among the kEvictionScan least-recently-used
    // entries, evict the cheapest to recompute (tie: the most stale). A
    // remote episode (cost_hint ~1000x) thus outlives any simulator entry
    // in the scan window.
    auto victim = std::prev(shard.lru.end());
    double victim_cost = shard.entries.at(*victim).cost;
    auto it = victim;
    for (std::size_t scanned = 1; scanned < kEvictionScan && it != shard.lru.begin();
         ++scanned) {
      --it;
      // Never consider the MRU entry: on a small stripe the scan window
      // reaches the front, and the front is the entry this very call just
      // inserted — evicting it would give cheap backends a permanent 0%
      // hit rate whenever expensive entries fill the stripe.
      if (it == shard.lru.begin()) break;
      const double cost = shard.entries.at(*it).cost;
      if (cost < victim_cost) {
        victim = it;
        victim_cost = cost;
      }
    }
    shard.entries.erase(*victim);
    shard.lru.erase(victim);
  }
}

/// Cacheable path: a hit copies the memo entry; a miss executes the episode
/// on the calling thread and memoizes its result. Two identical queries that
/// miss at the same time both execute and both count a miss; the later insert
/// finds the entry present and leaves it (backends are deterministic per
/// seed, so both results are bit-identical).
EpisodeResult EnvService::run_memoized(Backend& backend, const EnvQuery& query) {
  QueryKey key = make_key(query);
  // A key holding a NaN or infinity is neither looked up nor stored; it still
  // counts a miss, so hits + misses == queries holds.
  CacheShard* shard = nullptr;
  if (all_finite(key.values)) {
    shard = &shard_for(QueryKeyHash{}(key));
    std::scoped_lock lock(shard->mutex);
    const auto it = shard->entries.find(key);
    if (it != shard->entries.end()) {
      backend.cache_hits.fetch_add(1, std::memory_order_relaxed);
      // Touch: move to the front of the stripe's LRU order.
      shard->lru.splice(shard->lru.begin(), shard->lru, it->second.lru_it);
      return it->second.result;
    }
  }

  backend.cache_misses.fetch_add(1, std::memory_order_relaxed);
  EpisodeResult result = backend.impl->execute(query);
  backend.episodes.fetch_add(1, std::memory_order_relaxed);
  if (shard != nullptr) {
    std::scoped_lock lock(shard->mutex);
    const auto [it, inserted] = shard->entries.try_emplace(std::move(key));
    if (inserted) {
      shard->lru.push_front(it->first);
      it->second.result = result;
      it->second.cost = backend.impl->cost_hint();
      it->second.lru_it = shard->lru.begin();
      evict_locked(*shard);
    }
  }
  return result;
}

EpisodeResult EnvService::run_impl(const EnvQuery& query) {
  Backend& backend = backend_at(query.backend);
  if (query.sim_params && !backend.impl->accepts_sim_params()) {
    // An override replaces the episode's profile wholesale; allowing it on a
    // metered backend would fake real interactions, and on a non-Simulator
    // offline backend (e.g. multi-slice) it would silently drop the
    // backend's own semantics.
    throw std::invalid_argument("EnvService: sim_params overrides are not accepted by backend '" +
                                backend.impl->name() + "'");
  }
  backend.queries.fetch_add(1, std::memory_order_relaxed);

  // Tracing episodes carry per-frame payloads and are observational; keep
  // them out of the memo table. With caching disabled (capacity 0) there is
  // no table to consult at all: no lock, no phantom miss counters.
  const bool cacheable = caching_enabled() && backend.impl->kind() == BackendKind::kOffline &&
                         !query.workload.collect_traces;
  if (cacheable) {
    return run_memoized(backend, query);
  }

  EpisodeResult result = backend.impl->execute(query);
  backend.episodes.fetch_add(1, std::memory_order_relaxed);
  return result;
}

EpisodeResult EnvService::run_timed(const EnvQuery& query) {
  const auto start = std::chrono::steady_clock::now();
  EpisodeResult result = run_impl(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  query_latency_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  return result;
}

EpisodeResult EnvService::run(const EnvQuery& query) {
  OutstandingGuard guard(outstanding_);
  queue_depth_.record(outstanding_queries());
  return run_timed(query);
}

QueryHandle EnvService::submit(EnvQuery query) {
  // Validate the backend id on the submitting thread, so bad handles fail
  // fast instead of inside a worker.
  (void)backend_at(query.backend);
  const std::uint64_t id = next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Count the query as outstanding from submission (queued work is load the
  // router's placement must see), not just from execution start.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.record(outstanding_queries());
  std::future<EpisodeResult> future;
  try {
    future = pool_.submit([this, q = std::move(query)] {
      struct Release {
        std::atomic<std::int64_t>* counter;
        ~Release() { counter->fetch_sub(1, std::memory_order_relaxed); }
      } release{&outstanding_};
      return run_timed(q);
    });
  } catch (...) {
    // The task never enqueued, so its Release will never run; a leaked
    // increment would make placement shun this shard forever.
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  return QueryHandle(id, std::move(future));
}

std::vector<EpisodeResult> EnvService::run_batch(std::span<const EnvQuery> queries) {
  std::vector<EpisodeResult> results(queries.size());
  if (queries.empty()) return results;
  if (queries.size() == 1) {
    results[0] = run(queries[0]);
    return results;
  }
  pool_.parallel_for(queries.size(), [&](std::size_t i) { results[i] = run(queries[i]); });
  return results;
}

BackendStats EnvService::backend_stats(BackendId id) const {
  const Backend& backend = backend_at(id);
  BackendStats stats;
  stats.name = backend.impl->name();
  stats.kind = backend.impl->kind();
  stats.queries = backend.queries.load(std::memory_order_relaxed);
  stats.cache_hits = backend.cache_hits.load(std::memory_order_relaxed);
  stats.cache_misses = backend.cache_misses.load(std::memory_order_relaxed);
  stats.episodes = backend.episodes.load(std::memory_order_relaxed);
  stats.cost_hint = backend.impl->cost_hint();
  backend.impl->fill_stats(stats);  // rpc retries/failures for remote backends
  return stats;
}

EnvServiceStats EnvService::stats() const {
  EnvServiceStats total;
  const std::size_t n = backend_count();
  total.backends.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    total.add_backend(backend_stats(static_cast<BackendId>(id)));
  }
  total.query_latency_ns = query_latency_.snapshot();
  total.queue_depth = queue_depth_.snapshot();
  return total;
}

void EnvService::reset_stats() {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  for (Backend* backend : *snapshot) {
    backend->queries.store(0, std::memory_order_relaxed);
    backend->cache_hits.store(0, std::memory_order_relaxed);
    backend->cache_misses.store(0, std::memory_order_relaxed);
    backend->episodes.store(0, std::memory_order_relaxed);
    backend->impl->reset_stats();  // backend-owned counters (rpc retries/failures)
  }
  query_latency_.reset();
  queue_depth_.reset();
}

double EnvService::backend_cost_hint(BackendId id) const {
  return backend_at(id).impl->cost_hint();
}

bool EnvService::backend_accepts_sim_params(BackendId id) const {
  return backend_at(id).impl->accepts_sim_params();
}

std::size_t EnvService::cache_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

void EnvService::clear_cache() {
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace atlas::env
