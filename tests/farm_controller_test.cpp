// FarmController unit suite: registry grouping, heartbeat-driven state
// transitions, data-plane failover/redispatch, and the farm view in router
// stats — all driven through in-process fake
// WorkerControls (no sockets), with poll_once() stepped manually so every
// transition is deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"

namespace ae = atlas::env;

namespace {

/// Deterministic fake data plane: the "episode" is derived from the query
/// seed, and the whole worker can be switched to failing (execute throws)
/// via the shared flag — the same flag its heartbeats honor. The brown-out
/// flag fails episodes only, while heartbeats keep answering.
class FakeBackend final : public ae::EnvBackend {
 public:
  FakeBackend(std::string name, std::shared_ptr<std::atomic<bool>> failing,
              std::shared_ptr<std::atomic<bool>> brownout,
              std::shared_ptr<std::atomic<std::uint64_t>> executed)
      : name_(std::move(name)),
        failing_(std::move(failing)),
        brownout_(std::move(brownout)),
        executed_(std::move(executed)) {}

  ae::EpisodeResult execute(const ae::EnvQuery& query) const override {
    if (failing_->load()) throw std::runtime_error(name_ + ": worker down");
    if (brownout_->load()) throw std::runtime_error(name_ + ": episode failed");
    executed_->fetch_add(1);
    ae::EpisodeResult result;
    result.latencies_ms = {static_cast<double>(query.workload.seed)};
    result.frames_completed = 1;
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  bool accepts_sim_params() const noexcept override { return true; }

 private:
  std::string name_;
  std::shared_ptr<std::atomic<bool>> failing_;
  std::shared_ptr<std::atomic<bool>> brownout_;
  std::shared_ptr<std::atomic<std::uint64_t>> executed_;
};

class FakeWorker final : public ae::WorkerControl {
 public:
  explicit FakeWorker(std::string address, std::vector<ae::WorkerBackendInfo> backends)
      : address_(std::move(address)) {
    announce_.backends = std::move(backends);
  }

  const std::string& address() const noexcept override { return address_; }

  ae::WorkerAnnounce hello() override {
    if (failing->load()) throw std::runtime_error(address_ + ": hello failed");
    ++hellos;
    return announce_;
  }

  ae::WorkerHealth heartbeat() override {
    ++heartbeats;
    if (failing->load()) throw std::runtime_error(address_ + ": heartbeat timeout");
    ae::WorkerHealth health;
    health.episodes = executed->load();
    return health;
  }

  std::shared_ptr<const ae::EnvBackend> make_backend(const ae::WorkerBackendInfo& info,
                                                     ae::BackendId remote_backend) override {
    return std::make_shared<FakeBackend>(info.name + "@" + address_ + "#" +
                                             std::to_string(remote_backend),
                                         failing, brownout, executed);
  }

  std::shared_ptr<std::atomic<bool>> failing = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<bool>> brownout = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<std::uint64_t>> executed =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  int hellos = 0;
  int heartbeats = 0;

 private:
  std::string address_;
  ae::WorkerAnnounce announce_;
};

ae::WorkerBackendInfo sim_info(std::uint64_t digest) {
  ae::WorkerBackendInfo info;
  info.name = "sim-0";
  info.kind = ae::BackendKind::kOffline;
  info.accepts_sim_params = true;
  info.params_digest = digest;
  return info;
}

ae::EnvQuery query_with_seed(ae::BackendId backend, std::uint64_t seed) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 1000.0;
  q.workload.seed = seed;
  return q;
}

struct Farm {
  ae::ShardRouter router{2};
  ae::FarmController controller;

  explicit Farm(ae::FarmControllerOptions options = {}) : controller(router, options) {}
};

}  // namespace

TEST(FarmController, EquivalentBackendsGroupIntoOneFailoverBackend) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);

  // Same equivalence key -> same global id; the BackendId space grew by ONE.
  EXPECT_EQ(farm.controller.worker_backends(wa), farm.controller.worker_backends(wb));
  EXPECT_EQ(farm.router.backend_count(), 1u);
  EXPECT_EQ(a->hellos, 1);
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kServing);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);

  // A different digest is NOT interchangeable: new global id.
  auto c = std::make_shared<FakeWorker>("c:3", std::vector{sim_info(8)});
  farm.controller.add_worker(c);
  EXPECT_EQ(farm.router.backend_count(), 2u);

  const auto view = farm.router.stats().farm;
  EXPECT_TRUE(view.active);
  EXPECT_EQ(view.workers_joined, 3u);
  EXPECT_EQ(view.workers_serving, 3u);
}

TEST(FarmController, LateJoinerExtendsTheLiveBackendIdSpace) {
  Farm farm;
  // A local backend registered BEFORE any worker keeps its id.
  const auto local = farm.router.add_simulator();
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto remote = farm.controller.worker_backends(wa).at(0);
  EXPECT_NE(local, remote);
  EXPECT_EQ(farm.router.backend_count(), 2u);

  // Both address spaces serve: the local simulator and the farm backend.
  const auto r = farm.router.run(query_with_seed(remote, 42));
  EXPECT_EQ(r.latencies_ms, std::vector<double>{42.0});
  (void)farm.router.run(query_with_seed(local, 1));
}

TEST(FarmController, MissedHeartbeatsEscalateSuspectThenDead) {
  ae::FarmControllerOptions options;
  options.suspect_after_misses = 1;
  options.dead_after_misses = 3;
  Farm farm(options);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);

  a->failing->store(true);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);

  // Recovery clears the suspicion (and the miss counter).
  a->failing->store(false);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kServing);

  a->failing->store(true);
  farm.controller.poll_once();
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kDead);

  const auto view = farm.router.stats().farm;
  EXPECT_EQ(view.workers_lost, 1u);
  EXPECT_EQ(view.workers_serving, 1u);
  EXPECT_EQ(view.workers_suspect, 0u);
  EXPECT_EQ(view.heartbeats_missed, 4u);

  // Dead workers stop being heartbeated and stop serving: episodes all land
  // on the survivor.
  const int before = a->heartbeats;
  farm.controller.poll_once();
  EXPECT_EQ(a->heartbeats, before);
  const auto backend = farm.controller.worker_backends(wb).at(0);
  (void)farm.router.run(query_with_seed(backend, 5));
  EXPECT_EQ(b->executed->load(), 1u);
  EXPECT_EQ(a->executed->load(), 0u);
}

TEST(FarmController, FaultedEpisodeRedispatchesAndMarksWorkerSuspect) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);
  const auto backend = farm.controller.worker_backends(wa).at(0);

  a->failing->store(true);
  // Every query either lands on b directly or faults on a and re-dispatches
  // to b — never fails, and the results are the ones a would have produced.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result = farm.router.run(query_with_seed(backend, 100 + seed));
    EXPECT_EQ(result.latencies_ms, std::vector<double>{static_cast<double>(100 + seed)});
  }
  const auto view = farm.router.stats().farm;
  // Exactly one attempt hit a: the fault demoted it to suspect without
  // waiting for a heartbeat, so every later query went to b first.
  EXPECT_EQ(view.episodes_redispatched, 1u);
  EXPECT_EQ(b->executed->load(), 8u);
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);
}

TEST(FarmController, BrownOutWorkerCostsOneRedispatchPerHeartbeat) {
  // A brown-out worker fails its episodes but answers its heartbeats. The
  // controller's health states are the only thing that shuns it: the first
  // failed attempt of a round marks it suspect, and the heartbeat sweep
  // between rounds returns it to serving. So it costs exactly one failed
  // attempt, one re-dispatch, per sweep, and every result still comes from
  // the healthy worker.
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);
  const auto backend = farm.controller.worker_backends(wa).at(0);
  a->brownout->store(true);

  constexpr std::uint64_t kRounds = 4;
  constexpr std::uint64_t kQueriesPerRound = 8;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kQueriesPerRound; ++i) {
      const std::uint64_t seed = 1000 + round * kQueriesPerRound + i;
      const auto result = farm.router.run(query_with_seed(backend, seed));
      EXPECT_EQ(result.latencies_ms, std::vector<double>{static_cast<double>(seed)});
    }
    EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect) << "round " << round;
    EXPECT_EQ(farm.router.stats().farm.episodes_redispatched, round + 1) << "round " << round;
    farm.controller.poll_once();
    EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kServing) << "round " << round;
  }

  const auto view = farm.router.stats().farm;
  EXPECT_EQ(view.episodes_redispatched, kRounds);
  EXPECT_EQ(view.heartbeats_missed, 0u);
  EXPECT_EQ(view.workers_lost, 0u);
  EXPECT_EQ(b->executed->load(), kRounds * kQueriesPerRound);
  EXPECT_EQ(a->executed->load(), 0u);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);
}

TEST(FarmController, FarmCountersSurviveControllerDestruction) {
  ae::ShardRouter router(2);
  {
    ae::FarmController controller(router);
    auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
    controller.add_worker(a);
  }
  // The controller is gone; the router still reports the farm's history.
  const auto view = router.stats().farm;
  EXPECT_TRUE(view.active);
  EXPECT_EQ(view.workers_joined, 1u);
}

TEST(FarmController, RouterStatsCarryFarmCounters) {
  ae::ShardRouter router(2);
  ae::FarmController controller(router);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  controller.add_worker(a);
  controller.add_worker(b);
  EXPECT_EQ(router.stats().farm.workers_joined, 2u);
  EXPECT_EQ(router.stats().farm.workers_serving, 2u);

  b->failing->store(true);
  controller.poll_once();
  EXPECT_EQ(router.stats().farm.workers_suspect, 1u);
  EXPECT_EQ(router.stats().farm.heartbeats_missed, 1u);
}

TEST(FarmController, AdmissionFailureRejectsTheWorker) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  a->failing->store(true);
  EXPECT_THROW(farm.controller.add_worker(a), std::runtime_error);
  EXPECT_EQ(farm.controller.worker_count(), 0u);
  EXPECT_EQ(farm.router.stats().farm.workers_joined, 0u);
}

TEST(FarmController, MonitorThreadDrivesTransitions) {
  ae::FarmControllerOptions options;
  options.heartbeat_interval_ms = 10;
  options.suspect_after_misses = 1;
  options.dead_after_misses = 2;
  Farm farm(options);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);

  farm.controller.start();
  a->failing->store(true);
  // The monitor thread needs two failed sweeps at 10ms cadence.
  for (int i = 0; i < 500; ++i) {
    if (farm.controller.worker_state(wa) == ae::WorkerState::kDead) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  farm.controller.stop();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kDead);
  EXPECT_GE(farm.router.stats().farm.heartbeats_missed, 2u);
}
