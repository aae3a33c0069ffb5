#pragma once

// Outside-in layer probes. Every Atlas stage takes an `env::EnvClient&` and
// every execution target is an `env::EnvBackend`, so the benchmark can time
// the layers without changing the library: `TimingClient` wraps a client and
// decorates each backend registered through it (the pipeline registers its
// own stage-1 and augmented simulators that way), and `TimingBackend` times
// each episode execution. Both are pure pass-throughs — results, counters
// and registry ids are the wrapped object's own.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace pipebench {

namespace env = atlas::env;

/// CPU time consumed so far by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns() noexcept;

/// Steady-clock nanoseconds since an arbitrary epoch.
inline std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Episode timings collected by `TimingBackend`s. The thread that drives the
/// stages is named at construction: episodes it executes itself (synchronous
/// `EnvClient::run` calls, e.g. stage 3's inner updates) are charged as
/// driver-thread CPU, every other execution as pool busy time.
class Recorder {
 public:
  explicit Recorder(std::thread::id driver = std::this_thread::get_id()) : driver_(driver) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void record(std::uint64_t wall, std::uint64_t driver_cpu, bool on_driver) noexcept;
  bool on_driver() const noexcept { return std::this_thread::get_id() == driver_; }

  std::uint64_t episodes() const noexcept { return episodes_.load(std::memory_order_relaxed); }
  /// Wall time inside execute() on every thread.
  std::uint64_t busy_ns() const noexcept { return busy_ns_.load(std::memory_order_relaxed); }
  /// Wall time inside execute() on threads other than the driver.
  std::uint64_t pool_busy_ns() const noexcept {
    return pool_busy_ns_.load(std::memory_order_relaxed);
  }
  /// Driver-thread CPU spent inside execute().
  std::uint64_t driver_episode_cpu_ns() const noexcept {
    return driver_cpu_ns_.load(std::memory_order_relaxed);
  }
  atlas::telemetry::HistogramData episode_ns() const { return episode_ns_.snapshot(); }

 private:
  std::thread::id driver_;
  atlas::telemetry::Histogram episode_ns_;
  std::atomic<std::uint64_t> episodes_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> pool_busy_ns_{0};
  std::atomic<std::uint64_t> driver_cpu_ns_{0};
};

/// Times every episode the wrapped backend executes; forwards everything.
class TimingBackend final : public env::EnvBackend {
 public:
  TimingBackend(std::shared_ptr<const env::EnvBackend> inner, Recorder& recorder);

  env::EpisodeResult execute(const env::EnvQuery& query) const override;
  env::EpisodeResult execute_cancellable(const env::EnvQuery& query,
                                         const env::CancelToken& cancel) const override;
  env::BackendKind kind() const noexcept override { return inner_->kind(); }
  const std::string& name() const noexcept override { return inner_->name(); }
  double cost_hint() const noexcept override { return inner_->cost_hint(); }
  bool accepts_sim_params() const noexcept override { return inner_->accepts_sim_params(); }
  void fill_stats(env::BackendStats& stats) const override { inner_->fill_stats(stats); }
  void reset_stats() const override { inner_->reset_stats(); }

 private:
  template <typename Fn>
  env::EpisodeResult timed(Fn&& fn) const;

  std::shared_ptr<const env::EnvBackend> inner_;
  Recorder& recorder_;
};

/// Decorates every backend registered through it with a `TimingBackend`;
/// every other call goes straight to the wrapped client.
class TimingClient final : public env::EnvClient {
 public:
  TimingClient(env::EnvClient& inner, Recorder& recorder) : inner_(inner), recorder_(recorder) {}

  using env::EnvClient::register_backend;
  env::BackendId register_backend(std::shared_ptr<const env::EnvBackend> backend) override;
  std::size_t backend_count() const override { return inner_.backend_count(); }
  const std::string& backend_name(env::BackendId id) const override {
    return inner_.backend_name(id);
  }
  env::BackendKind backend_kind(env::BackendId id) const override {
    return inner_.backend_kind(id);
  }

  using env::EnvClient::run;
  env::EpisodeResult run(const env::EnvQuery& query) override { return inner_.run(query); }
  env::QueryHandle submit(env::EnvQuery query) override {
    return inner_.submit(std::move(query));
  }
  env::QueryHandle submit_cancellable(env::EnvQuery query,
                                      std::shared_ptr<const env::CancelToken> cancel) override {
    return inner_.submit_cancellable(std::move(query), std::move(cancel));
  }
  std::vector<env::EpisodeResult> run_batch(std::span<const env::EnvQuery> queries) override {
    return inner_.run_batch(queries);
  }

  env::BackendStats backend_stats(env::BackendId id) const override {
    return inner_.backend_stats(id);
  }
  env::EnvServiceStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  std::size_t outstanding_queries() const override { return inner_.outstanding_queries(); }
  void attach_speculation(std::shared_ptr<const env::SpeculationState> speculation) override {
    inner_.attach_speculation(std::move(speculation));
  }
  std::size_t cache_size() const override { return inner_.cache_size(); }
  void clear_cache() override { inner_.clear_cache(); }

 private:
  env::EnvClient& inner_;
  Recorder& recorder_;
};

}  // namespace pipebench
