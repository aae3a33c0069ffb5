#include "env/env_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace atlas::env {

namespace {

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

}  // namespace

EnvService::EnvService(EnvServiceOptions options) : pool_(options.threads) {
  registry_.store(std::make_shared<const RegistrySnapshot>(), std::memory_order_release);
}

std::size_t EnvService::outstanding_queries() const noexcept {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(0, outstanding_.load(std::memory_order_relaxed)));
}

std::uint64_t EnvService::episodes() const {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  std::uint64_t total = 0;
  for (const Backend* backend : *snapshot) {
    total += backend->episodes.load(std::memory_order_relaxed);
  }
  return total;
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
  stats.episodes = backend.episodes.load(std::memory_order_relaxed);
  // Kept only because pipebench reads hits and misses: nothing is memoized,
  // so every offline query reads as a miss.
  if (stats.kind == BackendKind::kOffline) stats.cache_misses = stats.queries;
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
    backend->episodes.store(0, std::memory_order_relaxed);
    backend->impl->reset_stats();  // backend-owned counters (rpc retries/failures)
  }
  query_latency_.reset();
  queue_depth_.reset();
}

bool EnvService::backend_accepts_sim_params(BackendId id) const {
  return backend_at(id).impl->accepts_sim_params();
}

}  // namespace atlas::env
