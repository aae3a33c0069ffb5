/// Remote farm: one ShardRouter mixing an in-process simulator shard with a
/// RemoteBackend shard served over the episode-RPC — the paper's "simulator,
/// real network, and testbed farm are interchangeable query targets that
/// differ only in cost" made literal.
///
/// For a self-contained example the "remote host" is an EpisodeRpcServer in
/// this process listening on 127.0.0.1; point RemoteBackendOptions at
/// another machine running `atlas_episode_worker` and nothing else changes:
///
///   ./build/tools/atlas_episode_worker --port 7001 &
///   (options.host = "farm-host"; options.port = 7001)
///
/// Build & run:
///   cmake -B build && cmake --build build
///   ./build/examples/remote_farm

#include <iostream>
#include <memory>
#include <vector>

#include "env/env_service.hpp"
#include "common/table.hpp"
#include "env/shard_router.hpp"
#include "rpc/remote_backend.hpp"
#include "rpc/server.hpp"

int main() {
  using namespace atlas;

  // ---- the "remote host": an EnvService behind the episode-RPC ------------
  // (exactly what the atlas_episode_worker binary runs).
  env::EnvService worker_service(env::EnvServiceOptions{.threads = 2});
  worker_service.add_simulator();  // worker-side backend id 0
  rpc::EpisodeRpcServer server(worker_service, rpc::RpcServerOptions{.port = 0});
  std::cout << "episode worker listening on 127.0.0.1:" << server.port() << "\n\n";

  // ---- the client: a router mixing local and remote shards ----------------
  env::ShardRouter router(2, env::EnvServiceOptions{.threads = 2});
  const auto local = router.add_simulator(env::SimParams::defaults(), "local-sim");

  rpc::RemoteBackendOptions options;
  options.host = "127.0.0.1";
  options.port = server.port();
  options.name = "remote-sim";
  options.timeout_ms = 30000.0;
  options.max_retries = 2;
  const auto remote = router.register_backend(std::make_shared<rpc::RemoteBackend>(options));

  // A Stage-1-style sweep, split across the two shards: even slots run
  // locally, odd slots ride the RPC. Same seeds -> the pairs must agree
  // bit for bit (the codec ships raw IEEE-754 bits).
  std::vector<env::EnvQuery> batch;
  for (std::uint64_t i = 0; i < 12; ++i) {
    env::EnvQuery q;
    q.backend = i % 2 == 0 ? local : remote;
    q.config.bandwidth_ul = 15.0 + 5.0 * static_cast<double>(i / 2 % 3);
    q.workload.duration_ms = 5000.0;
    q.workload.seed = 100 + i / 2;
    env::SimParams params;
    params.compute_time_ms = 2.0 * static_cast<double>(i / 2 % 2);
    q.sim_params = params;  // per-query Table 3 override, forwarded remotely
    batch.push_back(q);
  }
  const auto results = router.run_batch(batch);

  std::size_t identical = 0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    if (results[i].latencies_ms == results[i + 1].latencies_ms) ++identical;
  }
  std::cout << "local/remote result pairs bit-identical: " << identical << "/"
            << results.size() / 2 << "\n\n";

  // One coherent serving report — counters, RPC retries/failures, and the
  // remote round-trip quantiles — instead of a hand-rolled column subset.
  std::cout << "router accounting (every query runs its episode, locally or on the "
               "worker):\n";
  router.stats().summary().print(std::cout);

  std::cout << "\nworker-side accounting (its own EnvService meters the same episodes):\n";
  worker_service.stats().summary().print(std::cout);

  server.stop();
  return 0;
}
