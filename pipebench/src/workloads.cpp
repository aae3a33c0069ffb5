#include "workloads.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"
#include "rpc/server.hpp"
#include "rpc/worker_control.hpp"

namespace pipebench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Every option not set below keeps its shipped default.
WorkloadSpec surrogate_bound() {
  // Early-iteration traffic: the shipped per-iteration shapes (8 Thompson
  // draws over 1500/2000 candidates, 6 BNN epochs, 20 inner updates, 60-s
  // episodes) with iteration budgets cut so a pass takes about a second.
  // Datasets stay small, so costs that grow with them (BNN training, GP fit)
  // weigh far less than at the shipped budgets; the acquisition scans
  // dominate. Stage 3 keeps the most iterations: the online trace's length
  // is what steadies the per-pass regrets (6 online steps gave twice the
  // spread of 12).
  WorkloadSpec s;
  s.name = "surrogate_bound";
  s.shape = Shape::kPipeline;
  s.pool_threads = 3;
  s.options.stage1.iterations = 3;
  s.options.stage1.init_iterations = 1;
  s.options.stage2.iterations = 3;
  s.options.stage2.init_iterations = 1;
  s.options.stage3.iterations = 12;
  s.nominal_pass_s = 1.5;
  return s;
}

WorkloadSpec loopback_farm() {
  // Stages 2 and 3 with every simulator episode behind a two-worker
  // loopback farm, built as `atlas_loadgen --workers 2` builds it. Short
  // episodes and small pools give RPC round trips (above all stage 3's
  // synchronous inner updates) a large share of the pass. Not shorter than
  // 20 s: with 5-s episodes a pass was mostly thread wake-ups on the RPC
  // path, and its wall moved by 30 % with the host's load. The round trips
  // run one at a time, so the pass loses nothing on one CPU; spread over
  // four, each of its ~1,500 hand-offs woke an idle vCPU, and the pass wall
  // rose 30 % whenever the host's wake-up latency doubled.
  WorkloadSpec s;
  s.name = "loopback_farm";
  s.shape = Shape::kFarm;
  s.pool_threads = 1;
  s.farm_workers = 2;
  s.worker_threads = 1;
  s.one_cpu = true;
  atlas::env::Workload wl;
  wl.duration_ms = 20000.0;
  s.options.run_stage1 = false;
  s.options.stage2.workload = wl;
  s.options.stage3.workload = wl;
  s.options.stage2.iterations = 10;
  s.options.stage2.init_iterations = 3;
  s.options.stage2.candidates = 100;
  s.options.stage2.train_epochs = 1;
  s.options.stage3.iterations = 12;
  s.options.stage3.candidates = 40;
  s.nominal_pass_s = 0.6;
  return s;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  void add(const atlas::math::Vec& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double x : v) add(x);
  }
};

/// Stage start/finish readings on the driver thread.
class StageClock {
 public:
  StageClock(std::uint64_t entry_ns, const Recorder* recorder)
      : entry_ns_(entry_ns), recorder_(recorder) {}

  void begin() {
    if (first_start_ns_ == 0) first_start_ns_ = wall_ns();
    open_ = Reading::now(recorder_);
  }
  void end(int index) {
    const Reading close = Reading::now(recorder_);
    StageTiming& t = stages_[static_cast<std::size_t>(index)];
    t.wall_s = 1e-9 * static_cast<double>(close.wall - open_.wall);
    t.thread_cpu_s = 1e-9 * static_cast<double>(close.cpu - open_.cpu);
    t.driver_episode_s = 1e-9 * static_cast<double>(close.episode_cpu - open_.episode_cpu);
    last_end_ns_ = close.wall;
  }
  void finish(PassResult& pass) const {
    pass.setup_s = setup_s();
    pass.wall_s = 1e-9 * static_cast<double>(last_end_ns_ - first_start_ns_);
    pass.stages = stages_;
  }
  double setup_s() const { return 1e-9 * static_cast<double>(first_start_ns_ - entry_ns_); }

 private:
  struct Reading {
    std::uint64_t wall = 0;
    std::uint64_t cpu = 0;
    std::uint64_t episode_cpu = 0;
    static Reading now(const Recorder* recorder) {
      Reading r;
      r.episode_cpu = recorder != nullptr ? recorder->driver_episode_cpu_ns() : 0;
      r.cpu = thread_cpu_ns();
      r.wall = wall_ns();
      return r;
    }
  };
  std::uint64_t entry_ns_;
  const Recorder* recorder_;
  std::uint64_t first_start_ns_ = 0;
  std::uint64_t last_end_ns_ = 0;
  Reading open_;
  std::array<StageTiming, 3> stages_{};
};

/// FNV-1a over the bits of every stage result: calibration, offline policy
/// and history, online trace.
std::uint64_t hash_result(const core::PipelineResult& result) {
  Fnv f;
  const core::CalibrationResult& c = result.calibration;
  f.add(c.original_kl);
  f.add(c.best_weighted);
  f.add(c.best_params.to_vec());
  f.add(static_cast<std::uint64_t>(c.history.size()));
  for (const core::CalibrationStep& step : c.history) {
    f.add(step.params.to_vec());
    f.add(step.kl);
    f.add(step.weighted);
  }
  const core::OfflineResult& o = result.offline;
  f.add(o.policy.best_config.to_vec());
  f.add(o.policy.best_usage);
  f.add(o.policy.best_qoe);
  f.add(o.policy.final_lambda);
  f.add(static_cast<std::uint64_t>(o.history.size()));
  for (const core::OfflineStep& step : o.history) {
    f.add(step.config.to_vec());
    f.add(step.qoe);
    f.add(step.lambda);
  }
  f.add(static_cast<std::uint64_t>(result.online.history.size()));
  for (const core::OnlineStep& step : result.online.history) {
    f.add(step.config.to_vec());
    f.add(step.qoe_real);
    f.add(step.qoe_sim);
    f.add(step.lambda);
    f.add(step.beta);
  }
  f.add(result.online.final_lambda);
  return f.h;
}

/// Thrown from the first stage-start event to end a set-up probe.
struct SetupReached {};

int stage_index(core::PipelineStage stage) {
  switch (stage) {
    case core::PipelineStage::kCalibration: return 0;
    case core::PipelineStage::kOfflineTraining: return 1;
    case core::PipelineStage::kOnlineLearning: return 2;
  }
  return 0;
}

/// The loopback farm, built the way `atlas_loadgen --workers 2` builds it:
/// in-process EnvService + EpisodeRpcServer pairs on ephemeral ports, each
/// announcing the default simulator, admitted by a FarmController over a
/// ShardRouter so they share one failover backend. Members are declared in
/// teardown order's reverse: the controller goes first, the workers last.
struct Farm {
  struct Worker {
    std::unique_ptr<atlas::env::EnvService> service;
    std::unique_ptr<atlas::rpc::EpisodeRpcServer> server;
  };
  std::vector<Worker> workers;
  std::unique_ptr<atlas::env::ShardRouter> router;
  std::unique_ptr<atlas::env::FarmController> controller;
  atlas::env::BackendId sim = 0;

  Farm(const WorkloadSpec& spec, Recorder* worker_probe) {
    namespace env = atlas::env;
    const env::SimParams params = env::SimParams::defaults();
    std::vector<std::shared_ptr<atlas::rpc::RemoteWorkerControl>> controls;
    for (std::size_t w = 0; w < spec.farm_workers; ++w) {
      Worker worker;
      worker.service =
          std::make_unique<env::EnvService>(env::EnvServiceOptions{.threads = spec.worker_threads});
      std::shared_ptr<const env::EnvBackend> backend = std::make_shared<env::LocalBackend>(
          std::make_shared<env::Simulator>(params), "sim-0", env::BackendKind::kOffline);
      if (worker_probe != nullptr) {
        backend = std::make_shared<TimingBackend>(std::move(backend), *worker_probe);
      }
      worker.service->register_backend(std::move(backend));
      worker.server = std::make_unique<atlas::rpc::EpisodeRpcServer>(*worker.service);
      worker.server->set_backend_digest(0, env::params_digest(params));
      atlas::rpc::RemoteWorkerOptions control;
      control.port = worker.server->port();
      controls.push_back(std::make_shared<atlas::rpc::RemoteWorkerControl>(control));
      workers.push_back(std::move(worker));
    }
    router = std::make_unique<env::ShardRouter>(
        1, env::EnvServiceOptions{.threads = spec.pool_threads});
    controller = std::make_unique<env::FarmController>(*router);
    for (const auto& control : controls) controller->add_worker(control);
    bool found = false;
    for (const env::BackendId id : controller->worker_backends(0)) {
      if (router->backend_kind(id) == env::BackendKind::kOffline) {
        sim = id;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("farm worker 0 announced no offline backend");
    controller->start();
  }

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  ~Farm() { controller->stop(); }

  std::uint64_t worker_cache_entries() const {
    std::uint64_t n = 0;
    for (const Worker& w : workers) n += w.service->cache_size();
    return n;
  }
};

void run_stages_2_3(atlas::env::EnvClient& client, atlas::env::BackendId sim,
                    atlas::env::BackendId real, const core::PipelineOptions& options,
                    StageClock& clock, core::PipelineResult& result) {
  clock.begin();
  core::OfflineTrainer trainer(client, sim, options.stage2);
  result.offline = trainer.train();
  clock.end(1);
  clock.begin();
  core::OnlineLearner learner(&result.offline.policy, client, sim, real, options.stage3);
  result.online = learner.learn();
  clock.end(2);
}

PassResult run_impl(const WorkloadSpec& spec, std::uint64_t pass_seed, Probes probes,
                    bool in_process, bool setup_only) {
  namespace env = atlas::env;
  const core::PipelineOptions options = pass_options(spec, pass_seed);
  PassResult pass;
  const std::uint64_t entry = wall_ns();
  StageClock clock(entry, probes.client);
  std::optional<TimingClient> timing;
  auto wrap = [&](env::EnvClient& inner) -> env::EnvClient& {
    if (probes.client == nullptr) return inner;
    return timing.emplace(inner, *probes.client);
  };

  if (spec.shape == Shape::kFarm && !in_process) {
    Farm farm(spec, probes.worker);
    env::EnvClient& client = wrap(*farm.router);
    const env::BackendId real = client.add_real_network();
    if (setup_only) {
      clock.begin();
      pass.setup_s = clock.setup_s();
      return pass;
    }
    run_stages_2_3(client, farm.sim, real, options, clock, pass.result);
    pass.stats = client.stats();
    pass.cache_entries = client.cache_size() + farm.worker_cache_entries();
  } else if (spec.shape == Shape::kFarm) {
    env::EnvService service(
        env::EnvServiceOptions{.threads = spec.farm_workers * spec.worker_threads});
    env::EnvClient& client = wrap(service);
    const env::BackendId sim = client.add_simulator(env::SimParams::defaults(), "sim-0");
    const env::BackendId real = client.add_real_network();
    run_stages_2_3(client, sim, real, options, clock, pass.result);
    pass.stats = client.stats();
    pass.cache_entries = client.cache_size();
  } else {
    env::EnvService service(env::EnvServiceOptions{.threads = spec.pool_threads});
    env::EnvClient& client = wrap(service);
    const env::BackendId real = client.add_real_network();
    core::AtlasPipeline pipeline(client, real, options);
    try {
      pass.result = pipeline.run([&](const core::PipelineProgress& event) {
        if (event.skipped) return;
        const int index = stage_index(event.stage);
        if (event.finished) {
          clock.end(index);
        } else {
          clock.begin();
          if (setup_only) throw SetupReached{};
        }
      });
    } catch (const SetupReached&) {
      pass.setup_s = clock.setup_s();
      return pass;
    }
    pass.stats = pass.result.env_stats;
    pass.cache_entries = client.cache_size();
  }
  clock.finish(pass);
  pass.hash = hash_result(pass.result);
  return pass;
}

}  // namespace

bool WorkloadSpec::runs_stage(int stage) const {
  if (stage == 1) return shape == Shape::kPipeline && options.run_stage1;
  if (stage == 2) return options.run_stage2;
  return options.run_stage3;
}

std::size_t WorkloadSpec::stage_iterations(int stage) const {
  if (!runs_stage(stage)) return 0;
  if (stage == 1) return options.stage1.iterations;
  if (stage == 2) return options.stage2.iterations;
  return options.stage3.iterations;
}

std::uint64_t WorkloadSpec::expected_online_queries() const {
  std::uint64_t n = 0;
  if (runs_stage(1)) n += std::max<std::size_t>(1, options.stage1.real_episodes);
  n += options.stage3.iterations;
  return n;
}

std::size_t WorkloadSpec::compute_threads() const {
  return 1 + pool_threads + farm_workers * worker_threads;
}

WorkloadSpec make_workload(const std::string& name) {
  if (name == "surrogate_bound") return surrogate_bound();
  if (name == "loopback_farm") return loopback_farm();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return splitmix(splitmix(seed) + pass);
}

core::PipelineOptions pass_options(const WorkloadSpec& spec, std::uint64_t pass_seed) {
  core::PipelineOptions options = spec.options;
  options.stage1.seed = splitmix(pass_seed ^ 1);
  options.stage2.seed = splitmix(pass_seed ^ 2);
  options.stage3.seed = splitmix(pass_seed ^ 3);
  return options;
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t pass_seed, Probes probes,
                    bool in_process) {
  return run_impl(spec, pass_seed, probes, in_process, /*setup_only=*/false);
}

double probe_setup(const WorkloadSpec& spec) {
  return run_impl(spec, /*pass_seed=*/0, {}, /*in_process=*/false, /*setup_only=*/true).setup_s;
}

std::vector<std::string> check_pass(const WorkloadSpec& spec, const PassResult& pass) {
  std::vector<std::string> failures;
  for (const atlas::env::BackendStats& b : pass.stats.backends) {
    if (b.rejected() != 0 || b.rpc_failures != 0) {
      failures.push_back(b.name + ": " + std::to_string(b.rejected()) + " rejected, " +
                         std::to_string(b.rpc_failures) + " failed");
    }
    if (b.kind == atlas::env::BackendKind::kOffline) {
      if (b.cache_hits + b.cache_misses + b.rejected() != b.queries) {
        failures.push_back(b.name + ": hits + misses + rejected != queries");
      }
    } else if (b.episodes != b.queries) {
      failures.push_back(b.name + ": episodes != queries on a metered backend");
    }
  }
  if (pass.stats.online_queries != spec.expected_online_queries()) {
    failures.push_back("online_queries " + std::to_string(pass.stats.online_queries) +
                       " != " + std::to_string(spec.expected_online_queries()) +
                       " implied by the stage options");
  }
  return failures;
}

}  // namespace pipebench
