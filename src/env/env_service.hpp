#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::env {

struct EnvServiceOptions {
  std::size_t threads = 0;  ///< Worker threads (0 = ThreadPool default).
  std::size_t cache_capacity = 65536;  ///< Entries kept (0 disables caching).
  /// Lock stripes over the memo table. 0 = auto: enough power-of-2
  /// shards (up to 16) that each stripe still holds >= 64 entries, so small
  /// caches keep exact per-stripe LRU eviction while large ones stop
  /// serializing every lookup on one mutex.
  std::size_t cache_shards = 0;
};

/// The environment-query service every Atlas component talks to (instead of
/// owning environments and raw thread pools). One instance per deployment:
///
///   EnvService service;
///   const auto real = service.add_real_network();
///   const auto sim = service.add_simulator(params);
///   auto results = service.run_batch(queries);   // parallel, in order
///
/// The registry holds polymorphic `EnvBackend`s: in-process environments
/// (via `LocalBackend`), remote episode-RPC workers (`rpc::RemoteBackend`),
/// or any custom implementation — the service's memoization and accounting
/// are identical across them.
///
/// Guarantees:
///  * `run_batch` returns results positionally matching its input span.
///  * Offline episodes are memoized by (backend, config, workload, seed,
///    sim-param override); backends are deterministic per seed, so a cache
///    hit is bit-identical to a re-execution.
///  * Eviction is per-stripe LRU, weighted by the backend's recomputation
///    cost hint: among the least-recently-used entries, cheap (simulator)
///    episodes are evicted before expensive (remote / testbed) ones.
///  * Identical offline queries that miss at the same time (racing threads,
///    or duplicates inside one batch) each execute and each count a miss;
///    the memo keeps one entry per key. Backends are deterministic per seed,
///    so their results are bit-identical, and `cache_misses == episodes` and
///    `cache_hits + cache_misses == queries` hold for purely-cacheable
///    workloads.
///  * A query whose key holds a NaN or infinity (say, a NaN bandwidth off the
///    wire) is never memoized: it runs and counts a miss.
///  * Online (metered) backends are NEVER cached:
///    `episodes == queries` reproduces the paper's per-interaction
///    SLA-exposure bookkeeping.
///  * The service owns its thread pool; all methods are thread-safe. Lookups
///    are striped across `cache_shard_count()` locks and the backend registry
///    is a read-mostly snapshot, so queries on different keys do not contend.
class EnvService final : public EnvClient {
 public:
  explicit EnvService(EnvServiceOptions options = {});

  EnvService(const EnvService&) = delete;
  EnvService& operator=(const EnvService&) = delete;

  // ---- backend registry ----------------------------------------------------

  using EnvClient::register_backend;
  BackendId register_backend(std::shared_ptr<const EnvBackend> backend) override;

  std::size_t backend_count() const override;
  const std::string& backend_name(BackendId id) const override;
  BackendKind backend_kind(BackendId id) const override;

  // ---- queries ---------------------------------------------------------------

  using EnvClient::run;
  EpisodeResult run(const EnvQuery& query) override;

  QueryHandle submit(EnvQuery query) override;

  /// Run a batch across the pool; results are positionally ordered. Safe to
  /// call from inside a pool worker (the caller-runs fallback in ThreadPool
  /// drains nested work instead of deadlocking the fixed-size pool).
  std::vector<EpisodeResult> run_batch(std::span<const EnvQuery> queries) override;

  // ---- accounting ------------------------------------------------------------

  BackendStats backend_stats(BackendId id) const override;
  EnvServiceStats stats() const override;
  void reset_stats() override;

  std::size_t cache_size() const override;
  void clear_cache() override;

  /// Registry metadata pass-throughs, used to build a WorkerAnnounce.
  double backend_cost_hint(BackendId id) const;
  bool backend_accepts_sim_params(BackendId id) const;

  /// Whether offline episodes are memoized at all (cache_capacity > 0). When
  /// false, no cache lock is taken and no hit/miss counter moves — capacity 0
  /// means "caching disabled", not "a cache that misses forever".
  bool caching_enabled() const noexcept { return options_.cache_capacity > 0; }
  /// Number of lock stripes over the memo table.
  std::size_t cache_shard_count() const noexcept { return shards_.size(); }

  /// Queries currently executing or queued via submit(). ShardRouter uses
  /// this for least-loaded backend placement.
  std::size_t outstanding_queries() const noexcept override;

  std::size_t threads() const noexcept { return pool_.size(); }
  common::ThreadPool& pool() noexcept { return pool_; }

 private:
  struct Backend {
    std::shared_ptr<const EnvBackend> impl;
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<std::uint64_t> episodes{0};
  };
  /// Read-mostly registry snapshot: rebuilt on (rare) registration, loaded
  /// lock-free on every query. Backends live in a deque, so the pointers
  /// stay valid as the registry grows.
  using RegistrySnapshot = std::vector<Backend*>;

  /// Memoization key: every field that determines an episode's outcome.
  struct QueryKey {
    BackendId backend = 0;
    std::vector<double> values;  ///< config ++ workload ++ sim-param override
    bool operator==(const QueryKey&) const = default;
  };
  struct QueryKeyHash {
    std::size_t operator()(const QueryKey& key) const noexcept;
  };

  /// One memoized episode plus its position in the stripe's LRU list and the
  /// backend-provided recomputation cost that weights its eviction.
  struct MemoEntry {
    EpisodeResult result;
    double cost = 1.0;
    std::list<QueryKey>::iterator lru_it;
  };

  /// One lock stripe: memo entries and their LRU order (front = most
  /// recent), for keys hashing onto this stripe. Padded so stripes do not
  /// false-share.
  struct alignas(64) CacheShard {
    std::mutex mutex;
    std::unordered_map<QueryKey, MemoEntry, QueryKeyHash> entries;
    std::list<QueryKey> lru;  ///< Eviction order; hits splice to the front.
  };

  Backend& backend_at(BackendId id) const;
  CacheShard& shard_for(std::size_t hash) const;
  static QueryKey make_key(const EnvQuery& query);
  /// Evict until `shard.entries.size() <= shard_capacity_` (mutex held).
  void evict_locked(CacheShard& shard);
  EpisodeResult run_memoized(Backend& backend, const EnvQuery& query);
  EpisodeResult run_impl(const EnvQuery& query);
  /// run_impl + the service-latency histogram.
  EpisodeResult run_timed(const EnvQuery& query);

  EnvServiceOptions options_;

  mutable std::mutex registry_mutex_;  ///< Serializes writers only.
  std::deque<Backend> backends_;       ///< deque: stable references across growth.
  std::atomic<std::shared_ptr<const RegistrySnapshot>> registry_;

  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::size_t shard_capacity_ = 0;  ///< Per-stripe share of cache_capacity.

  std::atomic<std::uint64_t> next_query_id_{0};
  std::atomic<std::int64_t> outstanding_{0};

  /// Always-on serving telemetry, read through stats() and zeroed by
  /// reset_stats(): per-query service time (hits and executions alike) and
  /// the outstanding queries sampled at every arrival.
  telemetry::Histogram query_latency_;
  telemetry::Histogram queue_depth_;

  /// LAST member: destroyed first, so ~ThreadPool drains still-queued query
  /// tasks while the registry/shards they touch are alive.
  common::ThreadPool pool_;
};

}  // namespace atlas::env
