// Farm failover acceptance test: two real atlas_episode_worker processes
// behind one FarmController-managed ShardRouter, SIGKILL one mid-run_batch,
// and demand (a) the batch completes with results bit-identical to a pure
// in-process run, (b) every re-dispatched episode is counted, (c) a full
// replay re-runs every episode on the survivor under the same global id, and
// (d) the heartbeat sweep declares the killed worker dead.
//
// Needs ATLAS_WORKER_BIN (set by CMake on the ctest entry); skipped without
// it. ATLAS_WORKER_ADDR is deliberately ignored — this suite must own the
// worker's lifetime to be allowed to kill it.

#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"
#include "rpc/worker_control.hpp"

namespace ae = atlas::env;
namespace ar = atlas::rpc;

extern char** environ;

namespace {

/// Spawns one worker process this test is free to SIGKILL.
class OwnedWorker {
 public:
  bool start(int index) {
    const char* bin = std::getenv("ATLAS_WORKER_BIN");
    if (bin == nullptr) return false;
    port_file_ = "atlas_farm_port." + std::to_string(::getpid()) + "." + std::to_string(index);
    std::remove(port_file_.c_str());
    std::vector<std::string> args = {bin,          "--port",      "0",
                                     "--port-file", port_file_,   "--threads",
                                     "2",          "--quiet"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, bin, nullptr, nullptr, argv.data(), environ) != 0) return false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  void kill_hard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  ~OwnedWorker() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (!port_file_.empty()) std::remove(port_file_.c_str());
  }

  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string port_file_;
};

std::vector<ae::EnvQuery> batch_with_seeds(ae::BackendId backend, std::size_t n) {
  std::vector<ae::EnvQuery> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ae::EnvQuery q;
    q.backend = backend;
    q.config.bandwidth_ul = 20.0 + 5.0 * static_cast<double>(i % 3);
    q.workload.duration_ms = 3000.0;
    q.workload.seed = 5000 + i;  // distinct seeds: distinct episodes
    batch.push_back(q);
  }
  return batch;
}

std::shared_ptr<ar::RemoteWorkerControl> control_for(std::uint16_t port) {
  ar::RemoteWorkerOptions options;
  options.port = port;
  options.timeout_ms = 10000.0;
  options.control_timeout_ms = 1000.0;
  return std::make_shared<ar::RemoteWorkerControl>(options);
}

}  // namespace

TEST(FarmFailover, KilledWorkerMidBatchRedispatchesBitIdentically) {
  OwnedWorker a;
  OwnedWorker b;
  if (!a.start(0) || !b.start(1)) {
    GTEST_SKIP() << "set ATLAS_WORKER_BIN to run the farm failover test";
  }

  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 4});
  ae::FarmControllerOptions farm_options;
  farm_options.suspect_after_misses = 1;
  farm_options.dead_after_misses = 2;
  ae::FarmController controller(router, farm_options);
  const auto wa = controller.add_worker(control_for(a.port()));
  const auto wb = controller.add_worker(control_for(b.port()));
  ASSERT_EQ(router.backend_count(), 1u)
      << "both workers announce the same default simulator digest";
  const ae::BackendId sim = controller.worker_backends(wa).at(0);

  constexpr std::size_t kBatch = 240;
  const auto batch = batch_with_seeds(sim, kBatch);

  // In-process reference for bit-identity, computed up front.
  ae::EnvService reference(ae::EnvServiceOptions{.threads = 4});
  const auto ref_results = reference.run_batch(batch_with_seeds(reference.add_simulator(), kBatch));

  // Fire the batch, then SIGKILL worker A once episodes are demonstrably in
  // flight — queries already bound to A's connection fault and re-dispatch.
  auto results_future = std::async(std::launch::async, [&] { return router.run_batch(batch); });
  const auto kill_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (router.backend_stats(sim).episodes < kBatch / 16 &&
         std::chrono::steady_clock::now() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  a.kill_hard();
  const auto results = results_future.get();

  // (a) every slot completed, bit-identical to the in-process run: episodes
  // are deterministic per seed, so the survivor reproduces exactly what the
  // killed worker would have returned.
  ASSERT_EQ(results.size(), ref_results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].latencies_ms, ref_results[i].latencies_ms) << "slot " << i;
    EXPECT_EQ(results[i].frames_completed, ref_results[i].frames_completed);
    EXPECT_EQ(results[i].ul_tb_total, ref_results[i].ul_tb_total);
    EXPECT_EQ(results[i].ul_tb_err, ref_results[i].ul_tb_err);
    EXPECT_EQ(results[i].dl_tb_total, ref_results[i].dl_tb_total);
    EXPECT_EQ(results[i].dl_tb_err, ref_results[i].dl_tb_err);
  }

  // (b) exact episode accounting: every query became exactly one episode
  // (re-dispatch re-runs inside the FailoverBackend, invisible to the
  // service's meters), and every episode that faulted over is counted.
  const auto stats = router.backend_stats(sim);
  EXPECT_EQ(stats.queries, kBatch);
  EXPECT_EQ(stats.episodes, kBatch);
  const auto farm_view = router.stats().farm;
  EXPECT_GE(farm_view.episodes_redispatched, 1u) << "the kill landed mid-batch";
  EXPECT_LE(farm_view.episodes_redispatched, kBatch);
  EXPECT_EQ(farm_view.workers_joined, 2u);

  // (c) the STABLE global id still serves the whole batch: a full replay
  // re-runs every episode on the survivor and matches bit for bit.
  const auto survivor = control_for(b.port());
  const std::uint64_t survivor_before = survivor->heartbeat().episodes;
  const auto replay = router.run_batch(batch);
  for (std::size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].latencies_ms, ref_results[i].latencies_ms) << "slot " << i;
  }
  const auto after = router.backend_stats(sim);
  EXPECT_EQ(after.queries, 2 * kBatch);
  EXPECT_EQ(after.episodes, 2 * kBatch);
  EXPECT_EQ(survivor->heartbeat().episodes, survivor_before + kBatch);

  // (d) the heartbeat sweep confirms the death: suspect after one miss, dead
  // after two, and the farm view says one worker lost, one still serving.
  controller.poll_once();
  controller.poll_once();
  EXPECT_EQ(controller.worker_state(wa), ae::WorkerState::kDead);
  EXPECT_EQ(controller.worker_state(wb), ae::WorkerState::kServing);
  const auto final_view = router.stats().farm;
  EXPECT_EQ(final_view.workers_lost, 1u);
  EXPECT_EQ(final_view.workers_serving, 1u);
}
