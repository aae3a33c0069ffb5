// End-to-end acceptance test for the remote farm: spawn a real
// atlas_episode_worker process, put a RemoteBackend shard next to a local
// one inside a ShardRouter, run a Stage-1-style batch, and demand
// bit-identical results and matching BackendStats accounting versus the
// same batch run fully in-process.
//
// The worker binary path comes from ATLAS_WORKER_BIN (set by CMake on the
// ctest entry). Alternatively ATLAS_WORKER_ADDR=host:port points at an
// already-running worker (used by the CI job that starts one explicitly);
// with neither set the suite is skipped.

#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/shard_router.hpp"
#include "rpc/codec.hpp"
#include "rpc/remote_backend.hpp"

namespace ae = atlas::env;
namespace ar = atlas::rpc;

extern char** environ;

namespace {

/// Spawns (or attaches to) a worker; kills the spawned process on teardown.
class WorkerProcess {
 public:
  bool start() {
    if (const char* addr = std::getenv("ATLAS_WORKER_ADDR")) {
      const std::string s = addr;
      const auto colon = s.rfind(':');
      if (colon == std::string::npos) return false;
      host_ = s.substr(0, colon);
      port_ = static_cast<std::uint16_t>(std::stoi(s.substr(colon + 1)));
      return true;
    }
    const char* bin = std::getenv("ATLAS_WORKER_BIN");
    if (bin == nullptr) return false;

    port_file_ = "atlas_worker_port." + std::to_string(::getpid());
    std::remove(port_file_.c_str());
    std::vector<std::string> args = {bin,          "--port",      "0",
                                     "--port-file", port_file_,   "--threads",
                                     "2",          "--quiet"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, bin, nullptr, nullptr, argv.data(), environ) != 0) {
      return false;
    }

    // Poll for the atomically-renamed port file (worker prints it when the
    // listener is live, so a successful read implies readiness).
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
        return false;  // worker died during startup
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  ~WorkerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (!port_file_.empty()) std::remove(port_file_.c_str());
  }

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::string host_ = "127.0.0.1";
  std::uint16_t port_ = 0;
  std::string port_file_;
};

/// Stage-1-style batch: per-query SimParams overrides (the calibration
/// sweep's shape) plus plain-config queries, with deliberate duplicates that
/// each run their own episode.
std::vector<ae::EnvQuery> stage1_batch(ae::BackendId backend) {
  std::vector<ae::EnvQuery> batch;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ae::EnvQuery q;
    q.backend = backend;
    q.config.bandwidth_ul = 20.0 + 5.0 * static_cast<double>(i % 3);
    q.workload.duration_ms = 3000.0;
    q.workload.seed = 1000 + i;
    ae::SimParams params;
    params.backhaul_delay_ms = 2.0 * static_cast<double>(i % 2);
    params.compute_time_ms = 5.0 + static_cast<double>(i);
    q.sim_params = params;
    batch.push_back(q);
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    ae::EnvQuery q;
    q.backend = backend;
    q.workload.duration_ms = 3000.0;
    q.workload.seed = 2000 + i / 2;  // duplicates: seeds 2000, 2000, 2001, 2001
    batch.push_back(q);
  }
  return batch;
}

}  // namespace

TEST(RemoteIntegration, ShardRouterBatchMatchesInProcessBitIdentically) {
  WorkerProcess worker;
  if (!worker.start()) {
    GTEST_SKIP() << "set ATLAS_WORKER_BIN (or ATLAS_WORKER_ADDR) to run the remote farm test";
  }

  // Remote path: a ShardRouter mixing one local simulator shard with one
  // RemoteBackend shard served by the spawned worker.
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 2});
  const auto local = router.add_simulator(ae::SimParams::defaults(), "local-sim");
  ar::RemoteBackendOptions options;
  options.host = worker.host();
  options.port = worker.port();
  options.name = "remote-sim";
  const auto remote = router.register_backend(std::make_shared<ar::RemoteBackend>(options));
  ASSERT_NE(&router.service_for(local), &router.service_for(remote))
      << "local and remote backends should land on different shards";

  // In-process reference: identical batch against a plain EnvService.
  ae::EnvService reference(ae::EnvServiceOptions{.threads = 2});
  const auto ref_sim = reference.add_simulator();

  const auto remote_batch = stage1_batch(remote);
  const auto local_batch = stage1_batch(local);
  const auto ref_batch = stage1_batch(ref_sim);

  const auto remote_results = router.run_batch(remote_batch);
  const auto local_results = router.run_batch(local_batch);
  const auto ref_results = reference.run_batch(ref_batch);

  ASSERT_EQ(remote_results.size(), ref_results.size());
  for (std::size_t i = 0; i < ref_results.size(); ++i) {
    // Bit-identical across process boundaries: same seeds, same engine,
    // raw-bits codec.
    EXPECT_EQ(remote_results[i].latencies_ms, ref_results[i].latencies_ms) << "slot " << i;
    EXPECT_EQ(local_results[i].latencies_ms, ref_results[i].latencies_ms) << "slot " << i;
    EXPECT_EQ(remote_results[i].frames_completed, ref_results[i].frames_completed);
    EXPECT_EQ(remote_results[i].ul_tb_total, ref_results[i].ul_tb_total);
    EXPECT_EQ(remote_results[i].ul_tb_err, ref_results[i].ul_tb_err);
    EXPECT_EQ(remote_results[i].dl_tb_total, ref_results[i].dl_tb_total);
    EXPECT_EQ(remote_results[i].dl_tb_err, ref_results[i].dl_tb_err);
  }

  // Accounting parity: the remote path meters by the same rule as the local
  // ones, one episode per query, duplicate seeds included.
  for (const ae::BackendStats& stats :
       {router.backend_stats(remote), router.backend_stats(local),
        reference.backend_stats(ref_sim)}) {
    EXPECT_EQ(stats.queries, ref_batch.size()) << stats.name;
    EXPECT_EQ(stats.episodes, stats.queries) << stats.name;
  }
  EXPECT_EQ(router.backend_stats(remote).rpc_failures, 0u);

  // Replay: every query runs its episode again, remote or not, and returns
  // the same bits.
  const auto before = router.backend_stats(remote).episodes;
  const auto replay = router.run_batch(remote_batch);
  for (std::size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].latencies_ms, ref_results[i].latencies_ms);
  }
  EXPECT_EQ(router.backend_stats(remote).episodes, before + remote_batch.size());
}

TEST(RemoteIntegration, SimParamsRejectionCrossesTheWire) {
  WorkerProcess worker;
  if (!worker.start()) {
    GTEST_SKIP() << "set ATLAS_WORKER_BIN (or ATLAS_WORKER_ADDR) to run the remote farm test";
  }
  // A query the WORKER must reject (unknown worker-side backend id): the
  // error crosses the wire as an error frame and surfaces as RpcError.
  ar::RemoteBackendOptions options;
  options.host = worker.host();
  options.port = worker.port();
  options.remote_backend = 42;  // worker registered only backend 0
  ar::RemoteBackend backend(options);
  ae::EnvQuery q;
  q.workload.duration_ms = 1000.0;
  EXPECT_THROW((void)backend.execute(q), ar::RpcError);
  EXPECT_EQ(backend.rpc_failures(), 1u);
}
