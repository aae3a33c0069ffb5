#include "env/farm_controller.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

namespace atlas::env {

namespace {

/// The learned hedge delay: this quantile of the replicas' RTTs, clamped.
constexpr double kHedgeQuantile = 0.95;
constexpr double kHedgeMinDelayMs = 1.0;
constexpr double kHedgeMaxDelayMs = 1000.0;

/// Longest millisecond setting a HedgePolicy takes: one day. Every such
/// setting becomes a steady-clock duration or an int64 nanosecond count,
/// which a larger, infinite or NaN value would overflow.
constexpr double kMaxSettingMs = 24.0 * 3600.0 * 1000.0;

void check_setting_ms(const char* field, double ms) {
  if (!(ms >= 0.0 && ms <= kMaxSettingMs)) {
    throw std::invalid_argument(std::string("HedgePolicy::") + field +
                                " must be finite, >= 0 and at most one day");
  }
}

}  // namespace

std::uint64_t params_digest(const SimParams& params) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double value : params.to_vec()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

const char* to_string(WorkerState state) noexcept {
  switch (state) {
    case WorkerState::kJoining: return "joining";
    case WorkerState::kServing: return "serving";
    case WorkerState::kSuspect: return "suspect";
    case WorkerState::kDead: return "dead";
  }
  return "unknown";
}

// ---- FarmState --------------------------------------------------------------

FarmView FarmState::view() const {
  FarmView view;
  view.active = true;
  view.workers = workers_total.load(std::memory_order_relaxed);
  view.workers_serving = workers_serving.load(std::memory_order_relaxed);
  view.workers_suspect = workers_suspect.load(std::memory_order_relaxed);
  view.workers_joined = workers_joined.load(std::memory_order_relaxed);
  view.workers_lost = workers_lost.load(std::memory_order_relaxed);
  view.heartbeats_missed = heartbeats_missed.load(std::memory_order_relaxed);
  view.episodes_redispatched = episodes_redispatched.load(std::memory_order_relaxed);
  view.hedges = hedges.load(std::memory_order_relaxed);
  view.hedge_wins = hedge_wins.load(std::memory_order_relaxed);
  return view;
}

void FarmState::report_fault(std::uint32_t worker) {
  std::scoped_lock lock(controller_mutex_);
  if (controller_ != nullptr) controller_->report_fault(worker);
  // After the controller is gone the fault is moot — replicas are frozen.
}

// ---- FailoverBackend --------------------------------------------------------

FailoverBackend::FailoverBackend(WorkerBackendInfo descriptor, std::shared_ptr<FarmState> farm,
                                 HedgePolicy hedge)
    : descriptor_(std::move(descriptor)), farm_(std::move(farm)), hedge_(hedge) {
  check_setting_ms("fallback_delay_ms", hedge_.fallback_delay_ms);
  check_setting_ms("refresh_interval_ms", hedge_.refresh_interval_ms);
  replicas_.store(std::make_shared<const ReplicaList>(), std::memory_order_release);
  hedge_delay_cache_ms_.store(hedge_.fallback_delay_ms, std::memory_order_relaxed);
}

void FailoverBackend::add_replica(std::shared_ptr<const EnvBackend> backend,
                                  std::uint32_t worker,
                                  std::shared_ptr<const std::atomic<int>> health) {
  std::scoped_lock lock(mutex_);
  auto next = std::make_shared<ReplicaList>(*snapshot());
  next->push_back(Replica{std::move(backend), worker, std::move(health)});
  replicas_.store(std::shared_ptr<const ReplicaList>(std::move(next)),
                  std::memory_order_release);
}

void FailoverBackend::remove_worker(std::uint32_t worker) {
  std::scoped_lock lock(mutex_);
  auto next = std::make_shared<ReplicaList>(*snapshot());
  std::erase_if(*next, [worker](const Replica& r) { return r.worker == worker; });
  replicas_.store(std::shared_ptr<const ReplicaList>(std::move(next)),
                  std::memory_order_release);
}

std::vector<std::size_t> FailoverBackend::candidate_order(const ReplicaList& replicas) const {
  // Serving replicas first, round-robin rotated so load spreads; then
  // joining/suspect as fallback; dead replicas are skipped outright —
  // unless that leaves nothing, in which case everyone gets one last chance
  // (a stale health cell beats failing the episode). Each cell is read once,
  // so a replica changing state mid-scan lands in exactly one tier.
  std::vector<std::size_t> candidates;
  std::vector<std::size_t> fallback;
  candidates.reserve(replicas.size());
  const std::size_t offset = rr_.fetch_add(1, std::memory_order_relaxed) % replicas.size();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const std::size_t index = (offset + i) % replicas.size();
    const auto state =
        static_cast<WorkerState>(replicas[index].health->load(std::memory_order_relaxed));
    if (state == WorkerState::kServing) {
      candidates.push_back(index);
    } else if (state != WorkerState::kDead) {
      fallback.push_back(index);
    }
  }
  candidates.insert(candidates.end(), fallback.begin(), fallback.end());
  if (candidates.empty()) {
    for (std::size_t i = 0; i < replicas.size(); ++i) candidates.push_back(i);
  }
  return candidates;
}

double FailoverBackend::hedge_delay_ms() const {
  if (!hedge_.enabled) return 0.0;
  // Staleness is bounded by two clocks. Elapsed time is primary: a cached
  // delay older than refresh_interval_ms is recomputed even on a farm that
  // just woke from idle, so the first queries back never hedge on a quantile
  // learned under a dead RTT regime. The call counter is secondary — under
  // steady load it spaces the (comparatively expensive) merged-histogram
  // quantile scans to one per kHedgeRefresh episodes.
  constexpr std::uint64_t kHedgeRefresh = 64;
  const std::uint64_t call = hedge_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count();
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(hedge_.refresh_interval_ms * 1e6);
  const bool stale =
      now_ns - hedge_refreshed_ns_.load(std::memory_order_relaxed) >= interval_ns;
  if (stale || call % kHedgeRefresh == 0) {
    hedge_refreshed_ns_.store(now_ns, std::memory_order_relaxed);
    telemetry::HistogramData rtt;
    const auto replicas = snapshot();
    for (const Replica& replica : *replicas) {
      BackendStats stats;
      replica.backend->fill_stats(stats);
      rtt.merge(stats.rpc_rtt_ns);
    }
    double delay_ms = hedge_.fallback_delay_ms;
    if (rtt.count() >= hedge_.min_samples) {
      delay_ms = std::clamp(static_cast<double>(rtt.quantile(kHedgeQuantile)) / 1e6,
                            kHedgeMinDelayMs, kHedgeMaxDelayMs);
    }
    hedge_delay_cache_ms_.store(delay_ms, std::memory_order_relaxed);
  }
  return hedge_delay_cache_ms_.load(std::memory_order_relaxed);
}

bool FailoverBackend::execute_hedged(const EnvQuery& query, const ReplicaList& replicas,
                                     const std::vector<std::size_t>& candidates,
                                     double hedge_ms, EpisodeResult& result,
                                     std::exception_ptr& last, bool& faulted) const {
  // Shared scoreboard for up to two racing attempts. Heap-allocated and
  // joined below, so no attempt outlives it.
  struct Race {
    std::mutex mutex;
    std::condition_variable cv;
    int finished = 0;
    bool have_result = false;
    std::size_t winner = 0;
    EpisodeResult result;
    std::exception_ptr error[2];
    CancelToken cancel[2]{{false}, {false}};
  };
  const auto race = std::make_shared<Race>();

  const auto run_attempt = [&query, race](const Replica& replica, std::size_t slot) {
    try {
      EpisodeResult r = replica.backend->execute_cancellable(query, race->cancel[slot]);
      std::scoped_lock lock(race->mutex);
      if (!race->have_result) {
        race->have_result = true;
        race->winner = slot;
        race->result = std::move(r);
      }
      ++race->finished;
      race->cv.notify_all();
    } catch (...) {
      std::scoped_lock lock(race->mutex);
      race->error[slot] = std::current_exception();
      ++race->finished;
      race->cv.notify_all();
    }
  };

  const Replica& primary = replicas[candidates[0]];
  const Replica& secondary = replicas[candidates[1]];
  std::thread first(run_attempt, std::cref(primary), 0);
  bool hedged = false;
  {
    std::unique_lock lock(race->mutex);
    if (!race->cv.wait_for(lock,
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double, std::milli>(hedge_ms)),
                           [&] { return race->finished >= 1; })) {
      hedged = true;
    }
  }
  std::thread second;
  if (hedged) {
    farm_->hedges.fetch_add(1, std::memory_order_relaxed);
    second = std::thread(run_attempt, std::cref(secondary), 1);
  }
  {
    std::unique_lock lock(race->mutex);
    const int expected = hedged ? 2 : 1;
    race->cv.wait(lock, [&] { return race->have_result || race->finished >= expected; });
  }
  // First response won (or everything failed): cancel whoever is still
  // running, then JOIN both attempts — the loser unparks within a poll slice,
  // and joining keeps this race free of detached-thread lifetime hazards.
  race->cancel[0].store(true, std::memory_order_release);
  race->cancel[1].store(true, std::memory_order_release);
  first.join();
  if (second.joinable()) second.join();

  const auto settle_loser = [&](const Replica& replica, std::size_t slot) {
    if (race->error[slot] == nullptr) return;  // answered, won or lost
    try {
      std::rethrow_exception(race->error[slot]);
    } catch (const EpisodeCancelled&) {
      // The hedge loser we cancelled — not a fault.
    } catch (...) {
      last = race->error[slot];
      faulted = true;
      farm_->report_fault(replica.worker);
    }
  };
  settle_loser(primary, 0);
  if (hedged) settle_loser(secondary, 1);

  if (!race->have_result) return false;
  if (race->winner == 1) farm_->hedge_wins.fetch_add(1, std::memory_order_relaxed);
  if (faulted) {
    // The primary FAILED (not merely lagged) and the hedge completed the
    // episode: that is a redispatch, same as the sequential path.
    farm_->episodes_redispatched.fetch_add(1, std::memory_order_relaxed);
  }
  result = std::move(race->result);
  return true;
}

EpisodeResult FailoverBackend::execute(const EnvQuery& query) const {
  const auto replicas = snapshot();
  if (replicas->empty()) {
    throw std::runtime_error("FailoverBackend '" + descriptor_.name + "': no replicas attached");
  }
  const std::vector<std::size_t> candidates = candidate_order(*replicas);

  if (descriptor_.kind == BackendKind::kOnline) {
    // At most once: a metered query is a live interaction that may already
    // have run when its attempt failed, and the service meters it once, so
    // it is neither hedged nor re-dispatched.
    const Replica& replica = (*replicas)[candidates[0]];
    try {
      return replica.backend->execute(query);
    } catch (...) {
      farm_->report_fault(replica.worker);
      throw;
    }
  }

  std::exception_ptr last;
  bool faulted = false;
  std::size_t start = 0;
  const double hedge_ms = candidates.size() >= 2 ? hedge_delay_ms() : 0.0;
  if (hedge_ms > 0.0) {
    EpisodeResult result;
    if (execute_hedged(query, *replicas, candidates, hedge_ms, result, last, faulted)) {
      return result;
    }
    start = 2;  // both racing attempts failed; fall through to the rest
  }

  for (std::size_t c = start; c < candidates.size(); ++c) {
    const Replica& replica = (*replicas)[candidates[c]];
    try {
      EpisodeResult result = replica.backend->execute(query);
      if (faulted) {
        // The episode died with one worker and completed on another —
        // deterministic per seed, so the result is the one the lost worker
        // would have produced. Count it exactly once per episode.
        farm_->episodes_redispatched.fetch_add(1, std::memory_order_relaxed);
      }
      return result;
    } catch (...) {
      last = std::current_exception();
      faulted = true;
      // Data-plane detection: don't wait for the heartbeat sweep to shun
      // this worker for the rest of the batch.
      farm_->report_fault(replica.worker);
    }
  }
  std::rethrow_exception(last);
}

void FailoverBackend::fill_stats(BackendStats& stats) const {
  const auto replicas = snapshot();
  for (const Replica& replica : *replicas) {
    BackendStats replica_stats;
    replica.backend->fill_stats(replica_stats);
    stats.rpc_retries += replica_stats.rpc_retries;
    stats.rpc_failures += replica_stats.rpc_failures;
    stats.rpc_reconnects += replica_stats.rpc_reconnects;
    stats.rpc_rtt_ns.merge(replica_stats.rpc_rtt_ns);
  }
}

void FailoverBackend::reset_stats() const {
  const auto replicas = snapshot();
  for (const Replica& replica : *replicas) replica.backend->reset_stats();
}

// ---- FarmController ---------------------------------------------------------

FarmController::FarmController(ShardRouter& router, FarmControllerOptions options)
    : router_(router), options_(options), state_(std::make_shared<FarmState>()) {
  {
    std::scoped_lock lock(state_->controller_mutex_);
    state_->controller_ = this;
  }
  router_.attach_farm(state_);
}

FarmController::~FarmController() {
  stop();
  // Replicas and the router outlive us; detach so late fault reports from
  // in-flight episodes hit a null controller instead of a dangling one.
  std::scoped_lock lock(state_->controller_mutex_);
  state_->controller_ = nullptr;
}

void FarmController::set_state_locked(Worker& worker, WorkerState next) {
  const WorkerState prev = worker.state;
  if (prev == next) return;
  if (prev == WorkerState::kServing) {
    state_->workers_serving.fetch_sub(1, std::memory_order_relaxed);
  }
  if (prev == WorkerState::kSuspect) {
    state_->workers_suspect.fetch_sub(1, std::memory_order_relaxed);
  }
  if (next == WorkerState::kServing) {
    state_->workers_serving.fetch_add(1, std::memory_order_relaxed);
  }
  if (next == WorkerState::kSuspect) {
    state_->workers_suspect.fetch_add(1, std::memory_order_relaxed);
  }
  worker.state = next;
  worker.health->store(static_cast<int>(next), std::memory_order_relaxed);
}

std::uint32_t FarmController::add_worker(std::shared_ptr<WorkerControl> control) {
  if (control == nullptr) {
    throw std::invalid_argument("FarmController: null worker control");
  }
  // The admission round-trip happens before any bookkeeping: a worker that
  // cannot answer hello() is not admitted (and this throw is the caller's
  // signal).
  const WorkerAnnounce announce = control->hello();

  std::scoped_lock lock(mutex_);
  const auto index = static_cast<std::uint32_t>(workers_.size());
  Worker worker;
  worker.control = control;
  worker.health = std::make_shared<std::atomic<int>>(static_cast<int>(WorkerState::kJoining));

  for (std::size_t i = 0; i < announce.backends.size(); ++i) {
    const WorkerBackendInfo& info = announce.backends[i];
    const auto remote_local = static_cast<BackendId>(i);
    const std::uint64_t key = info.equivalence_key();
    BackendId global;
    std::shared_ptr<FailoverBackend> failover;
    const auto existing = backends_by_key_.find(key);
    if (existing != backends_by_key_.end()) {
      global = existing->second;
      failover = failover_backends_.at(global);
    } else {
      // First worker advertising this kind: a fresh FailoverBackend enters
      // the router's LIVE BackendId space — late joiners extend the farm
      // without disturbing existing ids.
      failover = std::make_shared<FailoverBackend>(info, state_, options_.hedge);
      global = router_.register_backend(failover);
      backends_by_key_.emplace(key, global);
      failover_backends_.emplace(global, failover);
    }
    failover->add_replica(control->make_backend(info, remote_local), index, worker.health);
    worker.hosted.emplace_back(global, remote_local);
  }

  workers_.push_back(std::move(worker));
  state_->workers_total.fetch_add(1, std::memory_order_relaxed);
  state_->workers_joined.fetch_add(1, std::memory_order_relaxed);
  set_state_locked(workers_.back(), WorkerState::kServing);
  return index;
}

void FarmController::mark_dead_locked(std::uint32_t index) {
  Worker& worker = workers_[index];
  for (const auto& [global, remote_local] : worker.hosted) {
    const auto it = failover_backends_.find(global);
    if (it != failover_backends_.end()) it->second->remove_worker(index);
  }
  set_state_locked(worker, WorkerState::kDead);
  state_->workers_lost.fetch_add(1, std::memory_order_relaxed);
}

void FarmController::report_fault(std::uint32_t index) {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) return;
  Worker& worker = workers_[index];
  if (worker.state != WorkerState::kServing) return;
  // Demote on data-plane evidence; the next heartbeat sweep either clears
  // the suspicion (transient blip) or escalates to dead.
  set_state_locked(worker, WorkerState::kSuspect);
}

void FarmController::poll_once() {
  struct Probe {
    std::uint32_t index;
    std::shared_ptr<WorkerControl> control;
  };
  std::vector<Probe> probes;
  {
    std::scoped_lock lock(mutex_);
    for (std::uint32_t i = 0; i < workers_.size(); ++i) {
      const Worker& worker = workers_[i];
      if (worker.state == WorkerState::kServing || worker.state == WorkerState::kSuspect) {
        probes.push_back(Probe{i, worker.control});
      }
    }
  }

  for (const Probe& probe : probes) {
    bool alive = false;
    try {
      (void)probe.control->heartbeat();
      alive = true;
    } catch (const std::exception&) {
      alive = false;
    }

    std::scoped_lock lock(mutex_);
    Worker& worker = workers_[probe.index];
    if (worker.state != WorkerState::kServing && worker.state != WorkerState::kSuspect) {
      continue;  // died while we were probing
    }
    if (alive) {
      worker.missed = 0;
      if (worker.state == WorkerState::kSuspect) {
        set_state_locked(worker, WorkerState::kServing);
      }
      continue;
    }
    ++worker.missed;
    state_->heartbeats_missed.fetch_add(1, std::memory_order_relaxed);
    if (worker.missed >= options_.dead_after_misses) {
      mark_dead_locked(probe.index);
    } else if (worker.missed >= options_.suspect_after_misses) {
      set_state_locked(worker, WorkerState::kSuspect);
    }
  }
}

void FarmController::start() {
  std::scoped_lock lock(mutex_);
  if (monitor_.joinable()) return;  // already running
  monitor_stop_ = false;
  monitor_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (monitor_cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
                               [this] { return monitor_stop_; })) {
        return;
      }
      lock.unlock();
      poll_once();
      lock.lock();
    }
  });
}

void FarmController::stop() {
  {
    std::scoped_lock lock(mutex_);
    monitor_stop_ = true;
    monitor_cv_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();
}

WorkerState FarmController::worker_state(std::uint32_t index) const {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) {
    throw std::out_of_range("FarmController: unknown worker " + std::to_string(index));
  }
  return workers_[index].state;
}

std::size_t FarmController::worker_count() const {
  std::scoped_lock lock(mutex_);
  return workers_.size();
}

std::vector<BackendId> FarmController::worker_backends(std::uint32_t index) const {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) {
    throw std::out_of_range("FarmController: unknown worker " + std::to_string(index));
  }
  std::vector<BackendId> ids;
  ids.reserve(workers_[index].hosted.size());
  for (const auto& [global, remote_local] : workers_[index].hosted) ids.push_back(global);
  return ids;
}

}  // namespace atlas::env
