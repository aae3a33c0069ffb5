/// Episode-RPC overhead bench — what does putting an episode behind the
/// wire cost? Three layers, bottom up: (1) raw codec encode+decode of a
/// realistic EpisodeResult, (2) full request/response round-trips over the
/// in-process loopback transport, (3) the same over real TCP sockets on
/// 127.0.0.1. Against episode wall-times of tens of milliseconds, the RPC
/// tax should be noise — this bench keeps it honest.

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "bench_util.hpp"
#include "rpc/codec.hpp"
#include "rpc/remote_backend.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"

int main() {
  using namespace atlas;
  using clock = std::chrono::steady_clock;
  const auto opts = common::bench_options();
  bench::banner("episode-RPC: codec + transport overhead",
                "remote episodes must cost network, not CPU");

  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };

  // A realistic result: one 60 s episode completes a few thousand frames.
  env::EpisodeResult sample;
  for (int i = 0; i < 4000; ++i) sample.latencies_ms.push_back(20.0 + 0.01 * i);
  sample.frames_completed = sample.latencies_ms.size();
  sample.ul_tb_total = 120000;
  sample.dl_tb_total = 90000;

  common::Table t({"layer", "op", "ops/s", "us/op"});

  {  // codec only
    const std::size_t iters = opts.iters(20000, 1000);
    const auto t0 = clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      const auto frame = rpc::encode_result(i, sample);
      rpc::WireReader reader(frame);
      (void)rpc::decode_header(reader);
      sink += rpc::decode_result_body(reader).latencies_ms.size();
    }
    const double ms = ms_since(t0);
    if (sink == 0) std::cout << "";  // keep the decode loop observable
    t.add_row({"codec", "encode+decode 4k-latency result",
               common::fmt(1000.0 * static_cast<double>(iters) / ms, 0),
               common::fmt(1000.0 * ms / static_cast<double>(iters), 1)});
  }

  // Round-trip layers share a tiny-episode worker so the measured time is
  // dominated by RPC plumbing, not simulation.
  env::EnvService worker(env::EnvServiceOptions{.threads = 2});
  worker.add_simulator();
  env::EnvQuery tiny;
  tiny.workload.duration_ms = 200.0;

  const auto round_trips = [&](rpc::RemoteBackend& backend, std::size_t iters) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      tiny.workload.seed = i + 1;
      (void)backend.execute(tiny);
    }
    return ms_since(t0);
  };

  rpc::EpisodeRpcServer server(worker, rpc::RpcServerOptions{.port = 0});
  const std::size_t iters = opts.iters(300, 20);

  {  // loopback transport
    std::vector<std::thread> serve_threads;
    std::vector<std::shared_ptr<rpc::Transport>> ends;
    rpc::RemoteBackendOptions ro;
    ro.name = "loopback";
    ro.transport_factory = [&] {
      auto [client_end, server_end] = rpc::make_loopback_pair();
      std::shared_ptr<rpc::Transport> remote{std::move(server_end)};
      ends.push_back(remote);
      serve_threads.emplace_back([&server, remote] { server.serve(*remote); });
      return std::move(client_end);
    };
    {
      rpc::RemoteBackend backend(ro);
      const double ms = round_trips(backend, iters);
      t.add_row({"loopback", "episode round-trip",
                 common::fmt(1000.0 * static_cast<double>(iters) / ms, 0),
                 common::fmt(1000.0 * ms / static_cast<double>(iters), 1)});
    }
    for (auto& e : ends) e->close();
    for (auto& th : serve_threads) th.join();
  }

  {  // TCP on 127.0.0.1
    rpc::RemoteBackendOptions ro;
    ro.host = "127.0.0.1";
    ro.port = server.port();
    ro.name = "tcp";
    rpc::RemoteBackend backend(ro);
    const double ms = round_trips(backend, iters);
    t.add_row({"tcp 127.0.0.1", "episode round-trip",
               common::fmt(1000.0 * static_cast<double>(iters) / ms, 0),
               common::fmt(1000.0 * ms / static_cast<double>(iters), 1)});
  }

  t.print(std::cout);
  server.stop();
  return 0;
}
