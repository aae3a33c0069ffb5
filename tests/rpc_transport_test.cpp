#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <latch>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/shard_router.hpp"
#include "rpc/codec.hpp"
#include "rpc/remote_backend.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "rpc/worker_control.hpp"

namespace ae = atlas::env;
namespace ar = atlas::rpc;

namespace {

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 3000.0;
  q.workload.seed = seed;
  return q;
}

/// A worker (EnvService + EpisodeRpcServer) whose RemoteBackends connect via
/// in-process loopback channels: the full RPC path — codec, framing,
/// multiplexing, server dispatch — without sockets.
struct LoopbackWorker {
  explicit LoopbackWorker(std::size_t threads = 2)
      : service(ae::EnvServiceOptions{.threads = threads}), server(service) {
    sim = service.add_simulator();
  }

  ~LoopbackWorker() {
    disconnect_all();
    for (auto& t : serve_threads) t.join();
    server.stop();
  }

  /// transport_factory for RemoteBackendOptions: each (re)connect builds a
  /// fresh loopback pair whose far end is served by a dedicated thread.
  std::function<std::unique_ptr<ar::Transport>()> factory() {
    return [this] {
      auto [client_end, server_end] = ar::make_loopback_pair();
      std::shared_ptr<ar::Transport> remote{std::move(server_end)};
      {
        std::scoped_lock lock(mutex);
        server_ends.push_back(remote);
        serve_threads.emplace_back([this, remote] { server.serve(*remote); });
      }
      return std::move(client_end);
    };
  }

  /// Close every server-side endpoint (simulates the worker dying).
  void disconnect_all() {
    std::scoped_lock lock(mutex);
    for (auto& t : server_ends) t->close();
  }

  ae::EnvService service;
  ar::EpisodeRpcServer server;
  ae::BackendId sim = 0;
  std::mutex mutex;
  std::vector<std::shared_ptr<ar::Transport>> server_ends;
  std::vector<std::thread> serve_threads;
};

}  // namespace

TEST(RpcLoopback, RemoteEpisodeMatchesLocalBitIdentically) {
  LoopbackWorker worker;

  ae::EnvService client(ae::EnvServiceOptions{.threads = 2});
  ar::RemoteBackendOptions options;
  options.name = "loopback-sim";
  options.transport_factory = worker.factory();
  const auto remote = client.register_backend(std::make_shared<ar::RemoteBackend>(options));

  ae::Simulator direct;
  const auto got = client.run(query(remote, 42));
  const auto want = direct.run(ae::SliceConfig{}, query(remote, 42).workload);
  EXPECT_EQ(got.latencies_ms, want.latencies_ms);
  EXPECT_EQ(got.frames_completed, want.frames_completed);
  EXPECT_EQ(got.ul_tb_total, want.ul_tb_total);
  EXPECT_EQ(got.dl_tb_total, want.dl_tb_total);

  const auto stats = client.backend_stats(remote);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(stats.rpc_retries, 0u);
  EXPECT_EQ(stats.rpc_failures, 0u);
}

TEST(RpcLoopback, RttHistogramAndWorkerStatsScrape) {
  LoopbackWorker worker;

  ae::EnvService client(ae::EnvServiceOptions{.threads = 2});
  ar::RemoteBackendOptions options;
  options.transport_factory = worker.factory();
  auto backend = std::make_shared<ar::RemoteBackend>(options);
  const auto remote = client.register_backend(backend);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    (void)client.run(query(remote, seed));
  }

  // Client side: every successful RPC landed in the round-trip histogram,
  // and the histogram rides along in BackendStats.
  const ae::BackendStats stats = client.backend_stats(remote);
  EXPECT_EQ(stats.rpc_rtt_ns.count(), 4u);
  EXPECT_GT(stats.rpc_rtt_ns.quantile(0.5), 0u);

  // Worker side: the stats scrape reports the worker's OWN metering —
  // per-backend counters plus the server's service-time histogram.
  const ae::EnvServiceStats scraped = backend->fetch_worker_stats();
  ASSERT_EQ(scraped.backends.size(), 1u);
  EXPECT_EQ(scraped.backends[0].queries, 4u);
  EXPECT_EQ(scraped.backends[0].episodes, 4u);
  EXPECT_EQ(scraped.rpc_service_ns.count(), 4u);
  EXPECT_EQ(scraped.query_latency_ns.count(), 4u);
  EXPECT_EQ(scraped.total_queries(), 4u);

  // reset_stats clears the backend-owned histogram with the counters.
  client.reset_stats();
  EXPECT_EQ(client.backend_stats(remote).rpc_rtt_ns.count(), 0u);
}

TEST(RpcLoopback, ConcurrentIdenticalRemoteQueriesKeepExactAccounting) {
  // The accounting must stay exact with an RPC in the middle: N racing
  // threads on one key each run the episode on the worker, get bit-identical
  // results, and `episodes == queries` holds on both sides.
  constexpr std::size_t kThreads = 8;
  LoopbackWorker worker;

  ae::EnvService client(ae::EnvServiceOptions{.threads = 2});
  ar::RemoteBackendOptions options;
  options.transport_factory = worker.factory();
  const auto remote = client.register_backend(std::make_shared<ar::RemoteBackend>(options));

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<ae::EpisodeResult> results(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = client.run(query(remote, 7));
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = client.backend_stats(remote);
  EXPECT_EQ(stats.queries, kThreads);
  EXPECT_EQ(stats.episodes, stats.queries);
  for (const auto& r : results) EXPECT_EQ(r.latencies_ms, results[0].latencies_ms);

  // Every client query reached the worker and ran there.
  const auto worker_stats = worker.service.backend_stats(worker.sim);
  EXPECT_EQ(worker_stats.queries, kThreads);
  EXPECT_EQ(worker_stats.episodes, worker_stats.queries);

  // A second client's replay runs one more episode on the worker, with the
  // same bits.
  ar::RemoteBackendOptions second;
  second.transport_factory = worker.factory();
  ar::RemoteBackend direct(second);
  const auto replay = direct.execute(query(remote, 7));
  EXPECT_EQ(replay.latencies_ms, results[0].latencies_ms);
  const auto replayed = worker.service.backend_stats(worker.sim);
  EXPECT_EQ(replayed.queries, worker_stats.queries + 1);
  EXPECT_EQ(replayed.episodes, worker_stats.episodes + 1) << "the replay ran its episode";
}

TEST(RpcLoopback, WorkerErrorsSurfaceAsRpcErrorWithoutRetry) {
  LoopbackWorker worker;

  ae::EnvService client(ae::EnvServiceOptions{.threads = 1});
  ar::RemoteBackendOptions options;
  options.remote_backend = 99;  // not registered on the worker
  options.transport_factory = worker.factory();
  auto backend = std::make_shared<ar::RemoteBackend>(options);
  const auto remote = client.register_backend(backend);

  EXPECT_THROW((void)client.run(query(remote, 1)), ar::RpcError);
  EXPECT_EQ(backend->rpc_retries(), 0u) << "semantic errors are deterministic: no retry";
  EXPECT_EQ(backend->rpc_failures(), 1u);
  EXPECT_EQ(client.backend_stats(remote).rpc_failures, 1u) << "failures surface in stats";

  client.reset_stats();
  EXPECT_EQ(client.backend_stats(remote).rpc_failures, 0u)
      << "reset_stats must clear backend-owned counters too";
}

TEST(RpcLoopback, NanDurationIsAnRpcErrorAndTheWorkerKeepsServing) {
  // One worker pool thread: a NaN-duration episode used to tick forever on
  // it, so the valid query after it was never served.
  LoopbackWorker worker(/*threads=*/1);

  ae::EnvService client(ae::EnvServiceOptions{.threads = 1});
  ar::RemoteBackendOptions options;
  options.remote_backend = worker.sim;
  options.transport_factory = worker.factory();
  auto backend = std::make_shared<ar::RemoteBackend>(options);
  const auto remote = client.register_backend(backend);

  ae::EnvQuery nan_query = query(remote, 1);
  nan_query.workload.duration_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)client.run(nan_query), ar::RpcError);
  EXPECT_EQ(backend->rpc_retries(), 0u) << "semantic errors are deterministic: no retry";
  EXPECT_EQ(backend->rpc_failures(), 1u);

  const auto served = client.run(query(remote, 1));
  EXPECT_GT(served.frames_completed, 0u);
  EXPECT_EQ(backend->rpc_failures(), 1u);
  EXPECT_EQ(worker.service.backend_stats(worker.sim).episodes, 1u);
}

TEST(RpcLoopback, TimeoutsRetryThenFailWithAccounting) {
  // A black-hole transport: requests go nowhere, so every attempt times out.
  auto black_hole = [] {
    auto [client_end, server_end] = ar::make_loopback_pair();
    // Keep the far end alive but never serve it (leak into a shared_ptr the
    // lambda owns) — the channel stays open, the request just never answers.
    static std::vector<std::shared_ptr<ar::Transport>> graveyard;
    graveyard.emplace_back(std::move(server_end));
    return std::move(client_end);
  };

  ar::RemoteBackendOptions options;
  options.timeout_ms = 50.0;
  options.max_retries = 2;
  options.transport_factory = black_hole;
  ar::RemoteBackend backend(options);

  EXPECT_THROW((void)backend.execute(query(0, 1)), ar::RpcError);
  EXPECT_EQ(backend.rpc_retries(), 2u);  // attempts 2 and 3
  EXPECT_EQ(backend.rpc_failures(), 1u);
  backend.reset_stats();
  EXPECT_EQ(backend.rpc_retries(), 0u) << "reset_stats clears the rpc counters";
  EXPECT_EQ(backend.rpc_failures(), 0u);

  // A METERED backend must be at-most-once: the sent query may already be
  // running a real interaction on the worker, so a timeout fails immediately
  // instead of re-running it.
  options.kind = ae::BackendKind::kOnline;
  ar::RemoteBackend metered(options);
  EXPECT_THROW((void)metered.execute(query(0, 2)), ar::RpcError);
  EXPECT_EQ(metered.rpc_retries(), 0u) << "no retry once a metered query is on the wire";
  EXPECT_EQ(metered.rpc_failures(), 1u);
}

TEST(RpcLoopback, RefusedConnectBacksOffThenServes) {
  // A refused connect arms the reconnect backoff. The retry waits it out
  // (base 200 ms, jitter in [0.5, 1) => at least 100 ms), reconnects, and
  // serves the episode: one retry, no failure.
  LoopbackWorker worker;
  std::atomic<int> connect_calls{0};
  auto live = worker.factory();
  ar::RemoteBackendOptions options;
  options.max_retries = 2;
  options.backoff_base_ms = 200.0;
  options.transport_factory = [&]() -> std::unique_ptr<ar::Transport> {
    if (connect_calls.fetch_add(1) == 0) {
      throw ar::TransportError("injected: first connect refused");
    }
    return live();
  };
  ar::RemoteBackend backend(options);

  const auto start = std::chrono::steady_clock::now();
  const auto result = backend.execute(query(0, 123));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 100.0) << "the retry must wait out the backoff";
  EXPECT_EQ(connect_calls.load(), 2);
  ae::Simulator direct;
  const auto local = direct.run(ae::SliceConfig{}, query(0, 123).workload);
  EXPECT_EQ(result.latencies_ms, local.latencies_ms);
  EXPECT_EQ(result.frames_completed, local.frames_completed);
  EXPECT_EQ(backend.rpc_retries(), 1u);
  EXPECT_EQ(backend.rpc_failures(), 0u);
}

TEST(RpcLoopback, ReconnectsAfterConnectionLoss) {
  LoopbackWorker worker;

  ar::RemoteBackendOptions options;
  options.max_retries = 1;
  options.transport_factory = worker.factory();
  ar::RemoteBackend backend(options);

  // Warm the connection, then kill the server side of every channel.
  (void)backend.execute(query(0, 11));
  worker.disconnect_all();
  for (auto& t : worker.serve_threads) t.join();
  worker.serve_threads.clear();

  // Depending on who notices first, either the dead connection is replaced
  // up front (no retry) or the first attempt faults and the retry opens a
  // fresh channel — both must converge to a served episode, not a failure.
  const auto result = backend.execute(query(0, 12));
  ae::Simulator direct;
  EXPECT_EQ(result.latencies_ms, direct.run(ae::SliceConfig{}, query(0, 12).workload).latencies_ms);
  EXPECT_EQ(backend.rpc_failures(), 0u);
}

TEST(RpcTcp, FramesCrossRealSockets) {
  ae::EnvService worker_service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = worker_service.add_simulator();
  (void)sim;
  ar::EpisodeRpcServer server(worker_service, ar::RpcServerOptions{.port = 0});
  ASSERT_GT(server.port(), 0);

  ar::RemoteBackendOptions options;
  options.host = "127.0.0.1";
  options.port = server.port();
  ar::RemoteBackend backend(options);

  ae::Simulator direct;
  const auto result = backend.execute(query(0, 99));
  EXPECT_EQ(result.latencies_ms, direct.run(ae::SliceConfig{}, query(0, 99).workload).latencies_ms);
  server.stop();
}

TEST(RpcTcp, ImplausibleLengthPrefixPoisonsTheStream) {
  // Hand-feed a garbage length prefix to a raw client socket: the transport
  // must reject it as corruption instead of allocating 4 GB.
  ar::TcpListener listener(0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  auto accepted = listener.accept();
  ASSERT_NE(accepted, nullptr);

  const std::uint8_t bogus[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // 4 GB "frame"
  ASSERT_EQ(::send(fd, bogus, sizeof(bogus), 0), 4);

  std::vector<std::uint8_t> frame;
  EXPECT_THROW((void)accepted->recv(frame), ar::TransportError);

  // A frame cut off mid-payload must also throw (not return a short frame).
  const std::uint8_t truncated[6] = {0x10, 0x00, 0x00, 0x00, 0xAA, 0xBB};  // claims 16 bytes
  ASSERT_EQ(::send(fd, truncated, sizeof(truncated), 0), 6);
  ::close(fd);
  EXPECT_THROW((void)accepted->recv(frame), ar::TransportError);
}

TEST(RpcShardRouter, MixesLocalAndRemoteShards) {
  // The tentpole end-state: one router, one BackendId space, a local
  // simulator next to a remote one — results bit-identical per seed.
  LoopbackWorker worker;

  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  const auto local = router.add_simulator(ae::SimParams::defaults(), "local-sim");
  ar::RemoteBackendOptions options;
  options.name = "remote-sim";
  options.transport_factory = worker.factory();
  const auto remote = router.register_backend(std::make_shared<ar::RemoteBackend>(options));

  std::vector<ae::EnvQuery> batch;
  for (std::uint64_t i = 0; i < 8; ++i) {
    batch.push_back(query(i % 2 == 0 ? local : remote, 300 + i / 2));
  }
  const auto results = router.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  // Pairs (2i, 2i+1) share a seed across the local/remote split.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    EXPECT_EQ(results[i].latencies_ms, results[i + 1].latencies_ms) << "pair " << i / 2;
  }

  const auto stats = router.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_EQ(stats.backends[0].name, "local-sim");
  EXPECT_EQ(stats.backends[1].name, "remote-sim");
  EXPECT_EQ(stats.backends[0].queries, 4u);
  EXPECT_EQ(stats.backends[1].queries, 4u);
  EXPECT_EQ(stats.backends[1].rpc_failures, 0u);
}

TEST(RpcOptions, MillisecondSettingsMustFitTheClock) {
  // Each of these reached a duration_cast to steady-clock ticks, which a NaN,
  // infinite or astronomically large value overflows; a zero timeout would
  // fail every attempt at once. The constructor refuses them.
  for (const double bad : {std::nan(""), 1e300, -1.0, 0.0}) {
    ar::RemoteBackendOptions timeout;
    timeout.timeout_ms = bad;
    EXPECT_THROW(ar::RemoteBackend{timeout}, std::invalid_argument) << bad;
    ar::RemoteBackendOptions control;
    control.control_timeout_ms = bad;
    EXPECT_THROW(ar::RemoteBackend{control}, std::invalid_argument) << bad;
  }
  for (const double bad : {std::nan(""), 1e300, -1.0}) {
    ar::RemoteBackendOptions base;
    base.backoff_base_ms = bad;
    EXPECT_THROW(ar::RemoteBackend{base}, std::invalid_argument) << bad;
    ar::RemoteBackendOptions cap;
    cap.backoff_cap_ms = bad;
    EXPECT_THROW(ar::RemoteBackend{cap}, std::invalid_argument) << bad;
  }
  // A worker control builds its control connection at once, so it inherits
  // the check.
  ar::RemoteWorkerOptions worker;
  worker.timeout_ms = 1e300;
  EXPECT_THROW(ar::RemoteWorkerControl{worker}, std::invalid_argument);
  // The bounds themselves are accepted; nothing connects until first use.
  ar::RemoteBackendOptions edge;
  edge.timeout_ms = 24.0 * 3600.0 * 1000.0;
  edge.backoff_base_ms = 0.0;
  EXPECT_NO_THROW(ar::RemoteBackend{edge});
}

// ---- farm control plane over the full RPC path -----------------------------

TEST(RpcLoopback, ControlPlaneHelloAndHeartbeat) {
  LoopbackWorker worker;
  worker.server.set_backend_digest(0, 0xFEEDu);

  ar::RemoteBackendOptions options;
  options.transport_factory = worker.factory();
  ar::RemoteBackend backend(options);

  // hello(): the registered simulator with its digest.
  const ae::WorkerAnnounce announce = backend.hello();
  ASSERT_EQ(announce.backends.size(), 1u);
  EXPECT_EQ(announce.backends[0].name, "simulator");
  EXPECT_EQ(announce.backends[0].kind, ae::BackendKind::kOffline);
  EXPECT_TRUE(announce.backends[0].accepts_sim_params);
  EXPECT_EQ(announce.backends[0].params_digest, 0xFEEDu);

  // heartbeat(): gauges move with executed episodes.
  EXPECT_EQ(backend.heartbeat().episodes, 0u);
  (void)backend.execute(query(0, 21));
  const ae::WorkerHealth health = backend.heartbeat();
  EXPECT_EQ(health.episodes, 1u);
  EXPECT_EQ(health.outstanding, 0u);
  std::uint64_t stats_episodes = 0;
  for (const auto& row : worker.service.stats().backends) stats_episodes += row.episodes;
  EXPECT_EQ(health.episodes, stats_episodes);
}

TEST(RpcLoopback, CancelledRequestIsDroppedWithoutAResponse) {
  // Drive the server with a raw loopback endpoint: a kCancel for a request
  // id followed by the kQuery with that id must produce NO response (the
  // episode is skipped), while other ids keep flowing.
  LoopbackWorker worker;
  auto [client_end, server_end] = ar::make_loopback_pair();
  std::shared_ptr<ar::Transport> remote{std::move(server_end)};
  std::thread serve([&worker, remote] { worker.server.serve(*remote); });

  client_end->send(ar::encode_cancel(7));
  client_end->send(ar::encode_query(7, query(0, 70)));
  client_end->send(ar::encode_query(8, query(0, 80)));

  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client_end->recv(frame));
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.request_id, 8u) << "request 7 was cancelled before execution";
  EXPECT_EQ(header.type, ar::MsgType::kResult);

  client_end->close();
  serve.join();
  EXPECT_EQ(worker.server.cancelled_total(), 1u);
  EXPECT_EQ(worker.service.backend_stats(0).episodes, 1u) << "only request 8 executed";
}

TEST(RpcLoopback, OtherWireVersionIsRejectedAndTheConnectionKeepsServing) {
  // A v8 peer's query: v8 and v9 lay out kQuery alike, so it is the v9 frame
  // stamped version 8. The worker speaks v9 only, so it answers with an
  // error naming the version instead of running the episode, and the next v9
  // query on the same connection is served as usual.
  LoopbackWorker worker;
  auto [client_end, server_end] = ar::make_loopback_pair();
  std::shared_ptr<ar::Transport> remote{std::move(server_end)};
  std::thread serve([&worker, remote] { worker.server.serve(*remote); });

  auto v8_query = ar::encode_query(7, query(0, 70));
  v8_query[4] = 8;  // u16 version after the u32 magic
  v8_query[5] = 0;
  client_end->send(v8_query);

  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client_end->recv(frame));
  {
    ar::WireReader reader(frame);
    ASSERT_EQ(ar::decode_header(reader).type, ar::MsgType::kError);
    const std::string message = ar::decode_error_body(reader);
    EXPECT_NE(message.find("version"), std::string::npos) << message;
    EXPECT_NE(message.find("v8"), std::string::npos) << message;
  }

  client_end->send(ar::encode_query(8, query(0, 80)));
  ASSERT_TRUE(client_end->recv(frame));
  {
    ar::WireReader reader(frame);
    const auto header = ar::decode_header(reader);
    EXPECT_EQ(header.type, ar::MsgType::kResult);
    EXPECT_EQ(header.request_id, 8u);
    ae::Simulator direct;
    EXPECT_EQ(ar::decode_result_body(reader).latencies_ms,
              direct.run(ae::SliceConfig{}, query(0, 80).workload).latencies_ms);
  }

  client_end->close();
  serve.join();
  EXPECT_EQ(worker.service.backend_stats(0).episodes, 1u) << "only the v9 query executed";
}
