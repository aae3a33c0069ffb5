#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::env {

struct EnvServiceOptions {
  std::size_t threads = 0;  ///< Worker threads (0 = ThreadPool default).
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
/// or any custom implementation — the service's accounting is identical
/// across them.
///
/// Guarantees:
///  * `run_batch` returns results positionally matching its input span.
///  * Every query runs its episode: `episodes == queries` on offline and
///    online backends alike, which on a metered backend is the paper's
///    per-interaction SLA-exposure bookkeeping. Atlas's stages never repeat a
///    (config, workload, seed) key, so nothing is memoized; a repeated query
///    re-executes and, backends being deterministic per seed, returns a
///    bit-identical result.
///  * The service owns its thread pool; all methods are thread-safe. The
///    backend registry is a read-mostly snapshot, so queries take no
///    service-wide lock.
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

  /// Registry metadata pass-through, used to build a WorkerAnnounce.
  bool backend_accepts_sim_params(BackendId id) const;

  /// Queries currently executing or queued via submit(). ShardRouter uses
  /// this for least-loaded backend placement.
  std::size_t outstanding_queries() const noexcept override;

  /// Episodes run across every backend: the sum of stats()'s per-backend
  /// `episodes`, read from the counters alone (a heartbeat answers with it).
  std::uint64_t episodes() const;

  std::size_t threads() const noexcept { return pool_.size(); }
  common::ThreadPool& pool() noexcept { return pool_; }

 private:
  struct Backend {
    std::shared_ptr<const EnvBackend> impl;
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> episodes{0};
  };
  /// Read-mostly registry snapshot: rebuilt on (rare) registration, loaded
  /// lock-free on every query. Backends live in a deque, so the pointers
  /// stay valid as the registry grows.
  using RegistrySnapshot = std::vector<Backend*>;

  Backend& backend_at(BackendId id) const;
  EpisodeResult run_impl(const EnvQuery& query);
  /// run_impl + the service-latency histogram.
  EpisodeResult run_timed(const EnvQuery& query);

  mutable std::mutex registry_mutex_;  ///< Serializes writers only.
  std::deque<Backend> backends_;       ///< deque: stable references across growth.
  std::atomic<std::shared_ptr<const RegistrySnapshot>> registry_;

  std::atomic<std::uint64_t> next_query_id_{0};
  std::atomic<std::int64_t> outstanding_{0};

  /// Always-on serving telemetry, read through stats() and zeroed by
  /// reset_stats(): per-query service time and the outstanding queries
  /// sampled at every arrival.
  telemetry::Histogram query_latency_;
  telemetry::Histogram queue_depth_;

  /// LAST member: destroyed first, so ~ThreadPool drains still-queued query
  /// tasks while the registry they touch is alive.
  common::ThreadPool pool_;
};

}  // namespace atlas::env
