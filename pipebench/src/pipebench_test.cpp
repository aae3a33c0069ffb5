// Pass-through proofs for the benchmark's probes: the timing decorators
// forward every virtual of EnvClient / EnvBackend, and a traced pass
// produces bit-identical stage results to an untraced one (for the farm
// shape also to the in-process reference). Exit 0 when every check holds.

#include <cstdio>
#include <map>
#include <string>

#include "common/log.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace pipebench;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

class FakeBackend final : public env::EnvBackend {
 public:
  mutable std::map<std::string, int> calls;

  env::EpisodeResult execute(const env::EnvQuery&) const override {
    ++calls["execute"];
    env::EpisodeResult r;
    r.frames_completed = 3;
    return r;
  }
  env::EpisodeResult execute_cancellable(const env::EnvQuery&,
                                         const env::CancelToken&) const override {
    ++calls["execute_cancellable"];
    return {};
  }
  env::BackendKind kind() const noexcept override { return env::BackendKind::kOnline; }
  const std::string& name() const noexcept override { return name_; }
  double cost_hint() const noexcept override { return 42.0; }
  bool accepts_sim_params() const noexcept override { return true; }
  void fill_stats(env::BackendStats& stats) const override {
    ++calls["fill_stats"];
    stats.rpc_retries = 5;
  }
  void reset_stats() const override { ++calls["reset_stats"]; }

 private:
  std::string name_ = "fake";
};

class FakeClient final : public env::EnvClient {
 public:
  std::map<std::string, int> calls;
  std::vector<std::shared_ptr<const env::EnvBackend>> registered;

  using env::EnvClient::register_backend;
  env::BackendId register_backend(std::shared_ptr<const env::EnvBackend> backend) override {
    ++calls["register_backend"];
    registered.push_back(std::move(backend));
    return static_cast<env::BackendId>(registered.size() - 1);
  }
  std::size_t backend_count() const override { return registered.size() + 100; }
  const std::string& backend_name(env::BackendId) const override {
    static const std::string n = "named";
    return n;
  }
  env::BackendKind backend_kind(env::BackendId) const override {
    return env::BackendKind::kOnline;
  }
  using env::EnvClient::run;
  env::EpisodeResult run(const env::EnvQuery&) override {
    ++calls["run"];
    return {};
  }
  env::QueryHandle submit(env::EnvQuery) override {
    ++calls["submit"];
    return {};
  }
  env::QueryHandle submit_cancellable(env::EnvQuery,
                                      std::shared_ptr<const env::CancelToken>) override {
    ++calls["submit_cancellable"];
    return {};
  }
  std::vector<env::EpisodeResult> run_batch(std::span<const env::EnvQuery> q) override {
    ++calls["run_batch"];
    return std::vector<env::EpisodeResult>(q.size());
  }
  env::BackendStats backend_stats(env::BackendId) const override {
    env::BackendStats s;
    s.queries = 9;
    return s;
  }
  env::EnvServiceStats stats() const override {
    env::EnvServiceStats s;
    s.online_queries = 13;
    return s;
  }
  void reset_stats() override { ++calls["reset_stats"]; }
  std::size_t outstanding_queries() const override { return 7; }
  void attach_speculation(std::shared_ptr<const env::SpeculationState>) override {
    ++calls["attach_speculation"];
  }
  std::size_t cache_size() const override { return 11; }
  void clear_cache() override { ++calls["clear_cache"]; }
};

void client_forwards_every_virtual() {
  FakeClient fake;
  Recorder recorder;
  TimingClient client(fake, recorder);
  auto backend = std::make_shared<FakeBackend>();
  CHECK(client.register_backend(backend) == 0);
  CHECK(client.backend_count() == 101);
  CHECK(client.backend_name(0) == "named");
  CHECK(client.backend_kind(0) == env::BackendKind::kOnline);
  env::EnvQuery q;
  client.run(q);
  client.submit(q);
  client.submit_cancellable(q, std::make_shared<env::CancelToken>(false));
  CHECK(client.run_batch(std::vector<env::EnvQuery>(2)).size() == 2);
  CHECK(client.backend_stats(0).queries == 9);
  CHECK(client.stats().online_queries == 13);
  client.reset_stats();
  CHECK(client.outstanding_queries() == 7);
  client.attach_speculation(nullptr);
  CHECK(client.cache_size() == 11);
  client.clear_cache();
  for (const char* name : {"register_backend", "run", "submit", "submit_cancellable",
                           "run_batch", "reset_stats", "attach_speculation", "clear_cache"}) {
    CHECK(fake.calls[name] == 1);
  }
  // Registration went through the decorator, which forwards in turn.
  CHECK(fake.registered.size() == 1 && fake.registered[0] != backend);
  const env::EnvBackend& wrapped = *fake.registered[0];
  CHECK(wrapped.execute(q).frames_completed == 3);
  env::CancelToken token(false);
  wrapped.execute_cancellable(q, token);
  CHECK(wrapped.kind() == env::BackendKind::kOnline);
  CHECK(wrapped.name() == "fake");
  CHECK(wrapped.cost_hint() == 42.0);
  CHECK(wrapped.accepts_sim_params());
  env::BackendStats stats;
  wrapped.fill_stats(stats);
  CHECK(stats.rpc_retries == 5);
  wrapped.reset_stats();
  for (const char* name : {"execute", "execute_cancellable", "fill_stats", "reset_stats"}) {
    CHECK(backend->calls[name] == 1);
  }
  CHECK(recorder.episodes() == 2);
  CHECK(recorder.driver_episode_cpu_ns() > 0 || recorder.busy_ns() > 0);
}

/// A pipeline small enough for a unit test, with every stage enabled.
WorkloadSpec tiny(Shape shape) {
  WorkloadSpec s = make_workload(shape == Shape::kFarm ? "loopback_farm" : "surrogate_bound");
  env::Workload wl;
  wl.duration_ms = 2500.0;
  s.options.stage1.workload = s.options.stage2.workload = s.options.stage3.workload = wl;
  s.options.stage1.iterations = 4;
  s.options.stage1.init_iterations = 2;
  s.options.stage1.parallel = 3;
  s.options.stage1.candidates = 40;
  s.options.stage1.real_episodes = 1;
  s.options.stage2.iterations = 4;
  s.options.stage2.init_iterations = 2;
  s.options.stage2.parallel = 3;
  s.options.stage2.candidates = 40;
  s.options.stage3.iterations = 3;
  s.options.stage3.inner_updates = 2;
  s.options.stage3.candidates = 40;
  s.pool_threads = 1;
  s.worker_threads = 1;
  return s;
}

void traced_pass_is_bit_identical(Shape shape) {
  const WorkloadSpec spec = tiny(shape);
  const PassResult plain = run_pass(spec, 77);
  Recorder client;
  Recorder worker;
  const PassResult traced = run_pass(spec, 77, Probes{&client, &worker});
  CHECK(plain.hash == traced.hash);
  CHECK(check_pass(spec, plain).empty());
  CHECK(check_pass(spec, traced).empty());
  CHECK(client.episodes() + worker.episodes() > 0);
  CHECK(run_pass(spec, 78).hash != plain.hash);  // the seed reaches the stages
  if (shape == Shape::kFarm) {
    CHECK(worker.episodes() > 0);
    CHECK(run_pass(spec, 77, {}, /*in_process=*/true).hash == plain.hash);
  }
  // Pool sizes change scheduling, never results.
  WorkloadSpec wide = spec;
  wide.pool_threads = 3;
  wide.worker_threads = 2;
  CHECK(run_pass(wide, 77).hash == plain.hash);
  const auto replay = replay_surrogate(pass_options(spec, 77), traced.result);
  CHECK(replay[1].bnn_train_s > 0.0 && replay[2].gp_fit_s > 0.0);
  CHECK((replay[0].thompson_scan_s > 0.0) == spec.runs_stage(1));
}

}  // namespace

int main() {
  atlas::common::set_log_threshold(atlas::common::LogLevel::kWarn);
  client_forwards_every_virtual();
  traced_pass_is_bit_identical(Shape::kPipeline);
  traced_pass_is_bit_identical(Shape::kFarm);
  if (g_failures == 0) std::printf("pipebench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
