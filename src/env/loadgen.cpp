#include "env/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "env/slice_config.hpp"
#include "math/rng.hpp"

namespace atlas::env {

namespace {

/// A random point in Table 2's configuration box (clamped to the
/// connectivity floor, like every config the optimizer would emit).
SliceConfig random_config(math::Rng& rng) {
  SliceConfig config;
  config.bandwidth_ul = rng.uniform(0.0, 50.0);
  config.bandwidth_dl = rng.uniform(0.0, 50.0);
  config.mcs_offset_ul = rng.uniform(0.0, 10.0);
  config.mcs_offset_dl = rng.uniform(0.0, 10.0);
  config.backhaul_mbps = rng.uniform(0.0, 100.0);
  config.cpu_ratio = rng.uniform(0.0, 1.0);
  return config.clamped();
}

}  // namespace

LoadPlan build_load_plan(const LoadPlanOptions& options) {
  if (options.qps <= 0.0) throw std::invalid_argument("loadgen: qps must be > 0");
  if (options.duration_s <= 0.0) throw std::invalid_argument("loadgen: duration must be > 0");
  if (options.mix.online < 0.0 || options.mix.trace < 0.0 ||
      options.mix.online + options.mix.trace > 1.0 + 1e-9) {
    throw std::invalid_argument("loadgen: mix fractions must be >= 0 and sum to <= 1");
  }

  // Independent streams per concern, so e.g. changing the rate does not
  // shift which configs the plan draws.
  math::Rng base(options.seed);
  math::Rng arrival_rng = base.fork(1);
  math::Rng mix_rng = base.fork(2);
  math::Rng config_rng = base.fork(3);

  LoadPlan plan;
  plan.offered_qps = options.qps;
  plan.horizon_s = options.duration_s;
  const double online_share = options.has_online ? options.mix.online : 0.0;

  // Every event takes the next seed, so no two events share an episode.
  std::uint64_t fresh_seed = options.seed * 1000003ULL;

  double t = 0.0;
  const double mean_gap = 1.0 / options.qps;
  for (;;) {
    t += arrival_rng.exponential(mean_gap);
    if (t >= options.duration_s) break;
    LoadEvent event;
    event.arrival_s = t;
    event.query.backend = options.offline_backend;
    event.query.workload.duration_ms = options.episode_ms;
    event.query.workload.traffic = 1;
    event.query.workload.extra_users = options.extra_users;
    event.query.config = random_config(config_rng);
    event.query.workload.seed = fresh_seed++;

    const double roll = mix_rng.uniform();
    if (roll < online_share) {
      event.kind = LoadKind::kOnline;
      event.query.backend = options.online_backend;
      ++plan.online;
    } else if (roll < online_share + options.mix.trace) {
      event.kind = LoadKind::kTrace;
      event.query.workload.collect_traces = true;
      ++plan.traces;
    } else {
      event.kind = LoadKind::kFresh;
      ++plan.fresh;
    }
    plan.events.push_back(std::move(event));
  }
  return plan;
}

LoadPointResult run_load_point(EnvClient& client, const LoadPlan& plan,
                               const LoadRunOptions& options) {
  LoadPointResult result;
  result.offered_qps = plan.offered_qps;
  result.scheduled = plan.events.size();
  if (plan.events.empty()) return result;

  const EnvServiceStats before = client.stats();

  telemetry::Histogram latency;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::uint64_t> last_completion_ns{0};
  std::atomic<bool> aborted{false};

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<const LoadEvent*> ready;  // guarded by mutex
  bool dispatch_done = false;          // guarded by mutex

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const bool guarded = options.wall_limit_s > 0.0;
  const auto wall_deadline =
      guarded ? start + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(options.wall_limit_s))
              : clock::time_point::max();
  const auto since_start_ns = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start).count());
  };

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(options.workers, plan.events.size()));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const LoadEvent* event = nullptr;
        {
          std::unique_lock lock(mutex);
          cv.wait(lock, [&] { return !ready.empty() || dispatch_done; });
          if (ready.empty()) return;
          event = ready.front();
          ready.pop_front();
        }
        try {
          (void)client.run(event->query);
          const std::uint64_t done_ns = since_start_ns();
          const auto scheduled_ns = static_cast<std::uint64_t>(event->arrival_s * 1e9);
          // Open-loop latency: charged from the SCHEDULED arrival, so time
          // spent waiting in the generator's own queue (all workers busy — the
          // service is saturated) counts against the service, as it would for
          // a real client.
          latency.record(done_ns > scheduled_ns ? done_ns - scheduled_ns : 0);
          std::uint64_t prev = last_completion_ns.load(std::memory_order_relaxed);
          while (prev < done_ns &&
                 !last_completion_ns.compare_exchange_weak(prev, done_ns,
                                                           std::memory_order_relaxed)) {
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Wall-guard watchdog: if the whole point has not resolved by the
  // deadline, declare the abort, dump still-queued events as failed, and run
  // on_abort so stuck in-flight queries come back. It does NOT kill worker
  // threads — it can only make their blocking calls return.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool run_done = false;  // guarded by done_mutex
  std::thread watchdog;
  if (guarded) {
    watchdog = std::thread([&] {
      {
        std::unique_lock lock(done_mutex);
        if (done_cv.wait_until(lock, wall_deadline, [&] { return run_done; })) return;
      }
      aborted.store(true, std::memory_order_release);
      {
        std::scoped_lock lock(mutex);
        failed.fetch_add(ready.size(), std::memory_order_relaxed);
        ready.clear();
        dispatch_done = true;
      }
      cv.notify_all();
      if (options.on_abort) options.on_abort();
    });
  }

  // Open-loop dispatch on this thread: each event fires at its scheduled
  // offset whether or not earlier ones completed. Past the wall deadline
  // nothing new is offered — the rest of the plan is failed wholesale.
  std::size_t undispatched = 0;
  for (const LoadEvent& event : plan.events) {
    const auto fire_at =
        start + std::chrono::nanoseconds(static_cast<std::uint64_t>(event.arrival_s * 1e9));
    if (fire_at >= wall_deadline || aborted.load(std::memory_order_acquire)) {
      ++undispatched;
      continue;
    }
    std::this_thread::sleep_until(fire_at);
    {
      std::scoped_lock lock(mutex);
      if (dispatch_done) {  // watchdog fired while we slept
        ++undispatched;
        continue;
      }
      ready.push_back(&event);
    }
    cv.notify_one();
  }
  failed.fetch_add(undispatched, std::memory_order_relaxed);
  {
    std::scoped_lock lock(mutex);
    dispatch_done = true;
  }
  cv.notify_all();
  for (auto& thread : pool) thread.join();
  if (watchdog.joinable()) {
    {
      std::scoped_lock lock(done_mutex);
      run_done = true;
    }
    done_cv.notify_all();
    watchdog.join();
  }

  result.aborted = aborted.load(std::memory_order_acquire);
  result.completed = completed.load(std::memory_order_relaxed);
  result.failed = failed.load(std::memory_order_relaxed);
  result.latency_ns = latency.snapshot();
  const std::uint64_t wall_ns = std::max<std::uint64_t>(1, last_completion_ns.load());
  result.wall_s = static_cast<double>(wall_ns) / 1e9;
  result.achieved_qps = static_cast<double>(result.completed) / result.wall_s;
  result.stats = client.stats().since(before);
  return result;
}

}  // namespace atlas::env
