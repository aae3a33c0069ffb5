// atlas_loadgen: open-loop (Poisson-arrival) load generator for the serving
// stack. Drives an EnvClient — an in-process ShardRouter, a farm of remote
// episode workers, or both — at a sweep of offered QPS points with a
// synthetic query mix (metered online queries, trace-heavy episodes, fresh
// exploration), measures coordinated-omission-free latency quantiles, finds
// the saturation rate, and writes BENCH_serving.json.
//
// Usage:
//   atlas_loadgen [--topology inproc|remote|both] [--host H] [--port N]
//                 [--workers N] [--qps Q1,Q2,...] [--sweep-start Q]
//                 [--sweep-factor F] [--sweep-max-steps N] [--duration S]
//                 [--clients N] [--threads N] [--shards N]
//                 [--mix-online F] [--mix-trace F] [--episode-ms MS]
//                 [--seed N] [--out PATH] [--smoke] [--quiet]
//
//   --topology        Which serving stacks to drive (default inproc; remote
//                     and both need --port of a running atlas_episode_worker
//                     OR --workers >= 2 to self-host a farm).
//   --workers         Remote episode workers to drive (default 1). The remote
//                     topology is a FarmController-managed farm: an external
//                     --port worker counts as worker 0 and the rest are
//                     self-hosted in-process episode-RPC servers on ephemeral
//                     loopback ports; per-worker throughput is reported in
//                     the JSON `workers` array.
//   --qps             Explicit offered-rate points; otherwise a geometric
//                     sweep from --sweep-start (default 50) by --sweep-factor
//                     (default 2) up to --sweep-max-steps (default 6) points,
//                     stopping one point after saturation.
//   --duration        Seconds of offered load per point (default 2).
//   --clients         Generator client threads per point (default 32).
//   --threads         Service pool threads (0 = hardware default).
//   --shards          In-process ShardRouter shards (default 2).
//   --mix-*           Query-mix fractions (defaults: 0.05 online,
//                     0.10 trace; the rest fresh).
//   --episode-ms      Simulated episode duration per query (default 40).
//   --extra-users     Background-slice UEs per episode (default 0): stresses
//                     the vectorized SoA background tier behind the serving
//                     layers instead of foreground-only episodes.
//   --smoke           CI preset: tiny duration/episodes, two fixed points.
//   --out             Output path (default BENCH_serving.json; also
//                     ATLAS_BENCH_SERVING_OUT / ATLAS_BENCH_OUT_DIR).
//
// Degradation mode (--fault-plan): instead of the QPS sweep, self-host a
// farm of --workers episode workers, wrap --faulty-fraction of them in a
// FaultInjectingBackend driven by the (seeded, deterministic) FaultPlan, and
// run the SAME load plan twice — fault-free and faulted — writing
// BENCH_degradation.json with goodput, hedge-win rate, re-dispatch count,
// and latency quantiles for both, plus the goodput ratio. Hedging is enabled
// for both runs so the comparison measures the farm's fault handling, not its
// absence.
//
//   --fault-plan       FaultPlan spec, e.g. 'delay=0.35:40ms,error=0.08,
//                      hang=0.02:800ms' (grammar: kind=prob[:dur], kinds
//                      delay|error|hang; a malformed plan is a usage error).
//   --faulty-fraction  Fraction of workers wrapped in the injector
//                      (default 0.25, rounded up to at least one worker).
//   --rpc-timeout-ms   Per-attempt RPC timeout in this mode (default 250).
//   --hedge-ms         Hedge fallback delay before RTTs are learned
//                      (default 25).
//
// Exit status: 0 on success, 1 when a topology cannot be driven (e.g. the
// worker is unreachable), 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flag_parse.hpp"
#include "env/env_service.hpp"
#include "env/environment.hpp"
#include "env/farm_controller.hpp"
#include "env/fault_injection.hpp"
#include "env/loadgen.hpp"
#include "env/shard_router.hpp"
#include "rpc/server.hpp"
#include "rpc/worker_control.hpp"
#include "telemetry/report.hpp"

namespace {

using atlas::common::FlagError;
using atlas::common::parse_double;
using atlas::common::parse_integer;

struct LoadgenOptions {
  std::string topology = "inproc";
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::vector<double> qps;  ///< Explicit points; empty = geometric sweep.
  double sweep_start = 50.0;
  double sweep_factor = 2.0;
  std::size_t sweep_max_steps = 6;
  double duration_s = 2.0;
  std::size_t clients = 32;
  std::size_t workers = 1;
  std::size_t threads = 0;
  std::size_t shards = 2;
  atlas::env::LoadMix mix;
  double episode_ms = 40.0;
  int extra_users = 0;
  std::uint64_t seed = 7;
  std::string out;
  bool smoke = false;
  bool quiet = false;
  // Degradation mode (--fault-plan).
  atlas::env::FaultPlan fault_plan;  ///< Empty = the serving sweep.
  double faulty_fraction = 0.25;
  double rpc_timeout_ms = 250.0;
  double hedge_ms = 25.0;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--topology inproc|remote|both] [--host H] [--port N]\n"
               "          [--workers N] [--qps Q1,Q2,...] [--sweep-start Q]\n"
               "          [--sweep-factor F] [--sweep-max-steps N] [--duration S]\n"
               "          [--clients N] [--threads N] [--shards N]\n"
               "          [--mix-online F] [--mix-trace F]\n"
               "          [--episode-ms MS] [--extra-users N]\n"
               "          [--seed N] [--out PATH]\n"
               "          [--smoke] [--quiet]\n"
               "          [--fault-plan SPEC] [--faulty-fraction F] [--rpc-timeout-ms MS]\n"
               "          [--hedge-ms MS]\n",
               argv0);
}

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  print_usage(stderr, argv0);
  std::exit(2);
}

std::vector<double> parse_qps_list(const char* value) {
  std::vector<double> points;
  std::string token;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        points.push_back(parse_double("--qps", token.c_str()));
        token.clear();
      }
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  if (points.empty()) throw FlagError("--qps expects at least one rate");
  return points;
}

LoadgenOptions parse_args(int argc, char** argv) {
  LoadgenOptions options;
  const char* fault_spec = nullptr;  // parsed once --seed is known
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(argv[0], flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--topology") {
      options.topology = next();
      if (options.topology != "inproc" && options.topology != "remote" &&
          options.topology != "both") {
        usage_error(argv[0], "--topology must be inproc, remote, or both");
      }
    } else if (flag == "--host") {
      options.host = next();
    } else if (flag == "--port") {
      options.port = parse_integer<std::uint16_t>(flag, next());
    } else if (flag == "--qps") {
      options.qps = parse_qps_list(next());
    } else if (flag == "--sweep-start") {
      options.sweep_start = parse_double(flag, next());
    } else if (flag == "--sweep-factor") {
      options.sweep_factor = parse_double(flag, next());
    } else if (flag == "--sweep-max-steps") {
      options.sweep_max_steps = parse_integer<std::size_t>(flag, next());
    } else if (flag == "--duration") {
      options.duration_s = parse_double(flag, next());
    } else if (flag == "--clients") {
      options.clients = parse_integer<std::size_t>(flag, next());
    } else if (flag == "--workers") {
      options.workers = parse_integer<std::size_t>(flag, next());
    } else if (flag == "--threads") {
      options.threads = parse_integer<std::size_t>(flag, next());
    } else if (flag == "--shards") {
      options.shards = parse_integer<std::size_t>(flag, next());
    } else if (flag == "--mix-online") {
      options.mix.online = parse_double(flag, next());
    } else if (flag == "--mix-trace") {
      options.mix.trace = parse_double(flag, next());
    } else if (flag == "--episode-ms") {
      options.episode_ms = parse_double(flag, next());
    } else if (flag == "--extra-users") {
      options.extra_users = parse_integer<int>(flag, next());
    } else if (flag == "--seed") {
      options.seed = parse_integer<std::uint64_t>(flag, next());
    } else if (flag == "--out") {
      options.out = next();
    } else if (flag == "--fault-plan") {
      fault_spec = next();
    } else if (flag == "--faulty-fraction") {
      options.faulty_fraction = parse_double(flag, next());
      if (options.faulty_fraction > 1.0) usage_error(argv[0], "--faulty-fraction must be <= 1");
    } else if (flag == "--rpc-timeout-ms") {
      options.rpc_timeout_ms = parse_double(flag, next());
    } else if (flag == "--hedge-ms") {
      options.hedge_ms = parse_double(flag, next());
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--quiet") {
      options.quiet = true;
    } else if (flag == "--help" || flag == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      usage_error(argv[0], "unknown flag '" + flag + "'");
    }
  }
  if (options.smoke) {
    // CI preset: two fixed points, short horizon, cheap episodes — the whole
    // run (both topologies) finishes in a few seconds while still exercising
    // sweep, mix, saturation detection, and the JSON schema.
    if (options.qps.empty()) options.qps = {50.0, 200.0};
    options.duration_s = 0.4;
    options.episode_ms = 5.0;
    options.clients = std::min<std::size_t>(options.clients, 16);
  }
  if (fault_spec != nullptr) {
    try {
      options.fault_plan = atlas::env::FaultPlan::parse(fault_spec, options.seed);
    } catch (const std::invalid_argument& e) {
      usage_error(argv[0], e.what());
    }
    if (options.fault_plan.empty()) usage_error(argv[0], "--fault-plan parsed to no rules");
  }
  if (options.workers == 0) usage_error(argv[0], "--workers must be >= 1");
  if (!options.fault_plan.empty() && options.workers < 2) {
    options.workers = 4;  // degradation mode needs a farm to fail over within
  }
  if ((options.topology == "remote" || options.topology == "both") && options.port == 0 &&
      options.workers < 2) {
    usage_error(argv[0], "--topology " + options.topology +
                             " needs --port of a running atlas_episode_worker"
                             " (or --workers >= 2 to self-host a farm)");
  }
  if (options.shards == 0) usage_error(argv[0], "--shards must be >= 1");
  return options;
}

struct PointRow {
  atlas::env::LoadPlan plan;
  atlas::env::LoadPointResult result;
};

struct WorkerRow {
  std::string address;
  atlas::env::WorkerHealth health;
  bool has_stats = false;
  atlas::env::EnvServiceStats stats;
};

struct TopologyReport {
  std::string name;
  std::vector<PointRow> points;
  double saturation_qps = 0.0;  ///< Highest achieved rate observed.
  bool saturated = false;       ///< A point fell short of its offered rate.
  atlas::env::EnvServiceStats final_stats;
  std::vector<WorkerRow> workers;  ///< Farm topology: one row per worker.
};

/// Offered rates to drive: explicit --qps, or a geometric sweep that stops
/// one point after saturation (the caller breaks out).
std::vector<double> sweep_points(const LoadgenOptions& options) {
  if (!options.qps.empty()) return options.qps;
  std::vector<double> points;
  double q = options.sweep_start;
  for (std::size_t i = 0; i < options.sweep_max_steps; ++i) {
    points.push_back(q);
    q *= options.sweep_factor;
  }
  return points;
}

double episodes_per_sec(const PointRow& row) {
  std::uint64_t episodes = 0;
  for (const auto& backend : row.result.stats.backends) episodes += backend.episodes;
  return row.result.wall_s <= 0.0 ? 0.0
                                  : static_cast<double>(episodes) / row.result.wall_s;
}

TopologyReport drive(const LoadgenOptions& options, const std::string& name,
                     atlas::env::EnvClient& client, atlas::env::BackendId offline,
                     atlas::env::BackendId online) {
  TopologyReport report;
  report.name = name;

  atlas::env::LoadPlanOptions plan_options;
  plan_options.mix = options.mix;
  plan_options.duration_s = options.duration_s;
  plan_options.episode_ms = options.episode_ms;
  plan_options.extra_users = options.extra_users;
  plan_options.offline_backend = offline;
  plan_options.online_backend = online;
  plan_options.has_online = true;

  atlas::env::LoadRunOptions run_options;
  run_options.workers = options.clients;

  const std::vector<double> points = sweep_points(options);
  for (std::size_t i = 0; i < points.size(); ++i) {
    plan_options.qps = points[i];
    // Distinct seed per point: a point draws its own configs and seeds.
    plan_options.seed = options.seed + i * 101;
    PointRow row;
    row.plan = atlas::env::build_load_plan(plan_options);
    row.result = atlas::env::run_load_point(client, row.plan, run_options);

    // Compare against the rate the Poisson draw actually REALIZED, not the
    // nominal one: a horizon short enough to draw 15% under its mean must not
    // read as the service falling behind.
    const double realized_qps =
        static_cast<double>(row.result.scheduled) / row.plan.horizon_s;
    const bool point_saturated =
        row.result.failed > 0 || row.result.achieved_qps < 0.9 * realized_qps;
    report.saturation_qps = std::max(report.saturation_qps, row.result.achieved_qps);
    if (!options.quiet) {
      std::printf("[%s] offered %8.1f qps -> achieved %8.1f qps  p50 %7.2f ms  "
                  "p99 %7.2f ms  p999 %7.2f ms  (%zu queries, %zu failed)%s\n",
                  name.c_str(), row.result.offered_qps, row.result.achieved_qps,
                  row.result.latency_ns.quantile(0.50) / 1e6,
                  row.result.latency_ns.quantile(0.99) / 1e6,
                  row.result.latency_ns.quantile(0.999) / 1e6, row.result.completed,
                  row.result.failed, point_saturated ? "  [saturated]" : "");
      std::fflush(stdout);
    }
    report.points.push_back(std::move(row));
    if (point_saturated && options.qps.empty()) {
      report.saturated = true;
      break;  // auto sweep: one saturated point is the answer; stop pushing
    }
    report.saturated = report.saturated || point_saturated;
  }

  report.final_stats = client.stats();
  if (!options.quiet) {
    report.final_stats.summary().print(std::cout);
    std::cout << std::endl;
  }
  return report;
}

TopologyReport drive_inproc(const LoadgenOptions& options) {
  atlas::env::EnvServiceOptions service_options;
  service_options.threads = options.threads;
  atlas::env::ShardRouter router(options.shards, service_options);
  const atlas::env::BackendId sim = router.add_simulator();
  const atlas::env::BackendId real = router.add_real_network();
  return drive(options, "inproc", router, sim, real);
}

/// What differs between the farm the serving sweep drives and the ones the
/// degradation mode builds.
struct FarmSpec {
  bool external_worker = false;  ///< Worker 0 is the --host/--port worker.
  /// Wraps the simulator of the last `faulty_workers` hosted workers.
  std::shared_ptr<atlas::env::FaultInjector> injector;
  std::size_t faulty_workers = 0;
  double rpc_timeout_ms = atlas::rpc::RemoteWorkerOptions{}.timeout_ms;
  atlas::env::HedgePolicy hedge;
};

/// --workers episode-RPC workers behind one FarmController-managed
/// ShardRouter. An external worker counts as worker 0; the rest are hosted
/// in this process on ephemeral loopback ports (real TCP, real codec — only
/// the host boundary is missing). All of them announce the default simulator
/// under atlas_episode_worker's digest, so they collapse into ONE
/// FailoverBackend, `sim`, which the controller round-robins episodes across.
/// Members are declared in reverse teardown order: the controller goes first,
/// the hosted workers last.
struct Farm {
  struct HostedWorker {
    std::unique_ptr<atlas::env::EnvService> service;
    std::unique_ptr<atlas::rpc::EpisodeRpcServer> server;
  };
  std::vector<HostedWorker> hosted;
  std::vector<std::shared_ptr<atlas::rpc::RemoteWorkerControl>> controls;
  std::unique_ptr<atlas::env::ShardRouter> router;
  std::unique_ptr<atlas::env::FarmController> controller;
  atlas::env::BackendId sim = 0;
};

Farm build_farm(const LoadgenOptions& options, const FarmSpec& spec) {
  namespace env = atlas::env;
  namespace rpc = atlas::rpc;
  const env::SimParams params = env::SimParams::defaults();
  Farm farm;
  const auto admit = [&](rpc::RemoteWorkerOptions control) {
    control.timeout_ms = spec.rpc_timeout_ms;
    farm.controls.push_back(std::make_shared<rpc::RemoteWorkerControl>(control));
  };
  if (spec.external_worker) {
    rpc::RemoteWorkerOptions control;
    control.host = options.host;
    control.port = options.port;
    admit(control);
  }
  while (farm.controls.size() < options.workers) {
    const bool faulty =
        spec.injector && farm.controls.size() >= options.workers - spec.faulty_workers;
    env::EnvServiceOptions service_options;
    service_options.threads = options.threads;
    Farm::HostedWorker worker;
    worker.service = std::make_unique<env::EnvService>(service_options);
    // The injector decorator forwards name/kind/accepts, so a faulty
    // worker's announce is indistinguishable from a healthy one's.
    std::shared_ptr<const env::EnvBackend> sim = std::make_shared<env::LocalBackend>(
        std::make_shared<env::Simulator>(params), "sim-0", env::BackendKind::kOffline);
    if (faulty) sim = std::make_shared<env::FaultInjectingBackend>(std::move(sim), spec.injector);
    worker.service->register_backend(std::move(sim));
    worker.server = std::make_unique<rpc::EpisodeRpcServer>(*worker.service);
    worker.server->set_backend_digest(0, env::params_digest(params));
    rpc::RemoteWorkerOptions control;
    control.port = worker.server->port();
    farm.hosted.push_back(std::move(worker));
    admit(control);
  }

  env::EnvServiceOptions router_options;
  router_options.threads = options.threads;
  farm.router = std::make_unique<env::ShardRouter>(options.shards, router_options);
  env::FarmControllerOptions farm_options;
  farm_options.hedge = spec.hedge;
  farm.controller = std::make_unique<env::FarmController>(*farm.router, farm_options);
  for (const auto& control : farm.controls) farm.controller->add_worker(control);
  // The shared simulator's global id: the first offline backend worker 0 hosts.
  for (const env::BackendId id : farm.controller->worker_backends(0)) {
    if (farm.router->backend_kind(id) == env::BackendKind::kOffline) {
      farm.sim = id;
      return farm;
    }
  }
  throw std::runtime_error("farm worker 0 announced no offline backend");
}

TopologyReport drive_farm(const LoadgenOptions& options) {
  Farm farm = build_farm(options, FarmSpec{.external_worker = options.port != 0});
  const atlas::env::BackendId real = farm.router->add_real_network();

  farm.controller->start();  // heartbeat sweeps run for the whole drive
  TopologyReport report = drive(options, "farm", *farm.router, farm.sim, real);
  farm.controller->stop();

  // Per-worker view: a final heartbeat (load gauges + episode count) plus the
  // worker's own stats snapshot, so the JSON shows how evenly the farm
  // saturated — not just the aggregate.
  for (const auto& control : farm.controls) {
    WorkerRow row;
    row.address = control->address();
    try {
      row.health = control->heartbeat();
      row.stats = control->worker_stats();
      row.has_stats = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "atlas_loadgen: worker %s scrape failed: %s\n",
                   row.address.c_str(), e.what());
    }
    report.workers.push_back(std::move(row));
  }
  return report;
}

void write_point_json(atlas::telemetry::JsonWriter& json, const PointRow& row) {
  json.begin_object();
  json.field("offered_qps", row.result.offered_qps);
  json.field("achieved_qps", row.result.achieved_qps);
  json.field("scheduled", static_cast<std::uint64_t>(row.result.scheduled));
  json.field("completed", static_cast<std::uint64_t>(row.result.completed));
  json.field("failed", static_cast<std::uint64_t>(row.result.failed));
  json.field("wall_s", row.result.wall_s);
  json.field("episodes_per_sec", episodes_per_sec(row));
  json.key("mix");
  json.begin_object();
  json.field("online", static_cast<std::uint64_t>(row.plan.online));
  json.field("trace", static_cast<std::uint64_t>(row.plan.traces));
  json.field("fresh", static_cast<std::uint64_t>(row.plan.fresh));
  json.end_object();
  json.key("latency_ms");
  atlas::telemetry::write_histogram_json(json, row.result.latency_ns, 1e6);
  json.end_object();
}

void write_topology_json(atlas::telemetry::JsonWriter& json, const TopologyReport& report) {
  json.begin_object();
  json.field("topology", report.name);
  json.field("saturated", report.saturated);
  json.field("saturation_qps", report.saturation_qps);
  json.key("points");
  json.begin_array();
  for (const PointRow& row : report.points) write_point_json(json, row);
  json.end_array();
  json.key("query_latency_ms");
  atlas::telemetry::write_histogram_json(json, report.final_stats.query_latency_ns, 1e6);
  if (report.final_stats.farm.active) {
    const atlas::env::FarmView& farm = report.final_stats.farm;
    json.key("farm");
    json.begin_object();
    json.field("workers", farm.workers);
    json.field("workers_serving", farm.workers_serving);
    json.field("workers_suspect", farm.workers_suspect);
    json.field("workers_joined", farm.workers_joined);
    json.field("workers_lost", farm.workers_lost);
    json.field("heartbeats_missed", farm.heartbeats_missed);
    json.field("episodes_redispatched", farm.episodes_redispatched);
    json.end_object();
  }
  if (!report.workers.empty()) {
    // Per-worker saturation: how evenly episode execution spread.
    double wall_s = 0.0;
    for (const PointRow& row : report.points) wall_s += row.result.wall_s;
    json.key("workers");
    json.begin_array();
    for (const WorkerRow& row : report.workers) {
      json.begin_object();
      json.field("address", row.address);
      json.field("episodes", row.health.episodes);
      json.field("episodes_per_sec",
                 wall_s <= 0.0 ? 0.0 : static_cast<double>(row.health.episodes) / wall_s);
      json.field("outstanding", row.health.outstanding);
      if (row.has_stats) {
        json.field("queries", row.stats.total_queries());
        json.key("rpc_service_ms");
        atlas::telemetry::write_histogram_json(json, row.stats.rpc_service_ns, 1e6);
      }
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
}

// ---- degradation mode (--fault-plan) ----------------------------------------

struct DegradationSide {
  atlas::env::LoadPlan plan;
  atlas::env::LoadPointResult result;
  atlas::env::EnvServiceStats final_stats;  ///< Absolute router stats at the end.
  atlas::env::FaultCounters faults;         ///< Zero on the clean side.
  std::size_t faulty_workers = 0;

  double goodput_qps() const {
    return result.wall_s <= 0.0 ? 0.0
                                : static_cast<double>(result.completed) / result.wall_s;
  }
};

/// Build a self-hosted farm (the last `faulty` workers wrapped in the
/// injector when `plan` is set), replay one load point against it, and tear
/// it down. Identical construction on both sides — only the injector differs
/// — so the clean side IS the faulted side's control.
DegradationSide run_degradation_side(const LoadgenOptions& options,
                                     const atlas::env::FaultPlan* plan) {
  namespace env = atlas::env;

  DegradationSide side;
  FarmSpec spec;
  spec.rpc_timeout_ms = options.rpc_timeout_ms;
  spec.hedge.enabled = true;
  spec.hedge.fallback_delay_ms = options.hedge_ms;
  if (plan != nullptr) {
    spec.injector = std::make_shared<env::FaultInjector>(*plan);
    side.faulty_workers = std::max<std::size_t>(
        1, static_cast<std::size_t>(options.faulty_fraction *
                                        static_cast<double>(options.workers) +
                                    0.5));
    spec.faulty_workers = side.faulty_workers;
  }
  Farm farm = build_farm(options, spec);

  env::LoadPlanOptions plan_options;
  plan_options.qps = options.qps.empty() ? 150.0 : options.qps.front();
  plan_options.mix = options.mix;
  plan_options.mix.online = 0.0;  // one shared offline backend; faults hit it
  plan_options.duration_s = options.duration_s;
  plan_options.episode_ms = options.episode_ms;
  plan_options.extra_users = options.extra_users;
  plan_options.offline_backend = farm.sim;
  plan_options.seed = options.seed;  // SAME plan both sides — paired comparison
  side.plan = env::build_load_plan(plan_options);

  env::LoadRunOptions run_options;
  run_options.workers = options.clients;

  farm.controller->start();
  side.result = env::run_load_point(*farm.router, side.plan, run_options);
  if (spec.injector) side.faults = spec.injector->counters();
  farm.controller->stop();
  side.final_stats = farm.router->stats();
  return side;
}

void write_degradation_side_json(atlas::telemetry::JsonWriter& json,
                                 const DegradationSide& side) {
  const atlas::env::LoadPointResult& r = side.result;
  json.begin_object();
  json.field("goodput_qps", side.goodput_qps());
  json.field("scheduled", static_cast<std::uint64_t>(r.scheduled));
  json.field("completed", static_cast<std::uint64_t>(r.completed));
  json.field("failed", static_cast<std::uint64_t>(r.failed));
  json.field("wall_s", r.wall_s);
  json.field("p50_ms", r.latency_ns.quantile(0.50) / 1e6);
  json.field("p99_ms", r.latency_ns.quantile(0.99) / 1e6);
  json.field("p999_ms", r.latency_ns.quantile(0.999) / 1e6);
  const atlas::env::FarmView& farm = side.final_stats.farm;
  json.field("hedges", farm.hedges);
  json.field("hedge_wins", farm.hedge_wins);
  json.field("hedge_win_rate", farm.hedges == 0 ? 0.0
                                                : static_cast<double>(farm.hedge_wins) /
                                                      static_cast<double>(farm.hedges));
  std::uint64_t reconnects = 0;
  for (const atlas::env::BackendStats& b : side.final_stats.backends) {
    reconnects += b.rpc_reconnects;
  }
  json.field("reconnects", reconnects);
  json.field("episodes_redispatched", farm.episodes_redispatched);
  if (side.faults.total() > 0 || side.faulty_workers > 0) {
    json.key("faults_injected");
    json.begin_object();
    json.field("delays", side.faults.delays);
    json.field("errors", side.faults.errors);
    json.field("hangs", side.faults.hangs);
    json.end_object();
  }
  json.key("latency_ms");
  atlas::telemetry::write_histogram_json(json, r.latency_ns, 1e6);
  json.end_object();
}

int run_degradation(const LoadgenOptions& options) {
  DegradationSide clean;
  DegradationSide faulted;
  try {
    clean = run_degradation_side(options, nullptr);
    if (!options.quiet) {
      std::printf("[degradation/clean]   goodput %8.1f qps  p99 %7.2f ms  "
                  "(%zu ok, %zu failed)\n",
                  clean.goodput_qps(), clean.result.latency_ns.quantile(0.99) / 1e6,
                  clean.result.completed, clean.result.failed);
      std::fflush(stdout);
    }
    faulted = run_degradation_side(options, &options.fault_plan);
    if (!options.quiet) {
      const atlas::env::FarmView& farm = faulted.final_stats.farm;
      std::printf("[degradation/faulted] goodput %8.1f qps  p99 %7.2f ms  "
                  "(%zu ok, %zu failed; %llu hedges, %llu wins, %llu redispatched)\n",
                  faulted.goodput_qps(), faulted.result.latency_ns.quantile(0.99) / 1e6,
                  faulted.result.completed, faulted.result.failed,
                  static_cast<unsigned long long>(farm.hedges),
                  static_cast<unsigned long long>(farm.hedge_wins),
                  static_cast<unsigned long long>(farm.episodes_redispatched));
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlas_loadgen: fatal: %s\n", e.what());
    return 1;
  }

  const double ratio = clean.goodput_qps() <= 0.0
                           ? 0.0
                           : faulted.goodput_qps() / clean.goodput_qps();
  const std::string out_path =
      options.out.empty()
          ? bench::bench_output_path("BENCH_degradation.json", "ATLAS_BENCH_DEGRADATION_OUT")
          : options.out;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "atlas_loadgen: cannot write %s\n", out_path.c_str());
    return 1;
  }
  atlas::telemetry::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "degradation");
  json.field("seed", options.seed);
  json.field("fault_plan", options.fault_plan.to_string());
  json.field("workers", static_cast<std::uint64_t>(options.workers));
  json.field("faulty_workers", static_cast<std::uint64_t>(faulted.faulty_workers));
  json.field("offered_qps", clean.result.offered_qps);
  json.field("duration_s", options.duration_s);
  json.field("rpc_timeout_ms", options.rpc_timeout_ms);
  json.field("hedge_ms", options.hedge_ms);
  json.key("clean");
  write_degradation_side_json(json, clean);
  json.key("faulted");
  write_degradation_side_json(json, faulted);
  json.field("goodput_ratio", ratio);
  json.end_object();
  out << "\n";
  if (!options.quiet) {
    std::printf("atlas_loadgen: goodput ratio %.3f (faulted/clean); wrote %s\n", ratio,
                out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  try {
    options = parse_args(argc, argv);
  } catch (const FlagError& e) {
    usage_error(argv[0], e.what());
  }
  if (!options.fault_plan.empty()) return run_degradation(options);

  std::vector<TopologyReport> reports;
  try {
    if (options.topology == "inproc" || options.topology == "both") {
      reports.push_back(drive_inproc(options));
    }
    if (options.topology == "remote" || options.topology == "both") {
      reports.push_back(drive_farm(options));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlas_loadgen: fatal: %s\n", e.what());
    return 1;
  }

  const std::string out_path = options.out.empty()
                                   ? bench::bench_output_path("BENCH_serving.json",
                                                              "ATLAS_BENCH_SERVING_OUT")
                                   : options.out;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "atlas_loadgen: cannot write %s\n", out_path.c_str());
    return 1;
  }
  atlas::telemetry::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "serving");
  json.field("seed", options.seed);
  json.field("duration_s", options.duration_s);
  json.field("episode_ms", options.episode_ms);
  json.field("extra_users", static_cast<std::int64_t>(options.extra_users));
  json.field("clients", static_cast<std::uint64_t>(options.clients));
  json.field("workers", static_cast<std::uint64_t>(options.workers));
  json.key("topologies");
  json.begin_array();
  for (const TopologyReport& report : reports) write_topology_json(json, report);
  json.end_array();
  json.end_object();
  out << "\n";
  if (!options.quiet) std::printf("atlas_loadgen: wrote %s\n", out_path.c_str());
  return 0;
}
