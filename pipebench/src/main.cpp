// atlas_pipebench: times whole Atlas runs on one workload and checks their
// outputs. Usage:
//
//   atlas_pipebench --workload NAME --seed N --seconds S --trace 0|1
//
// A run makes passes (fresh stack, all stages) with seeds derived from
// --seed, as many as fill about --seconds on the reference host, checks
// every pass, and prints one JSON line as the last line of stdout. With
// --trace 0 it reports the end-to-end metrics, its timings scaled to the
// reference host's speed by a calibration run around each pass; with
// --trace 1 it pairs each untraced pass with a traced one of the same seed
// (their results must be bit-identical), replays the surrogate work, and
// reports the per-layer metrics as measured. Exit 0 with a result, 1 when a
// pass throws, 2 on usage errors.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atlas/oracle.hpp"
#include "calibration.hpp"
#include "common/log.hpp"
#include "env/env_service.hpp"
#include "replay.hpp"
#include "telemetry/report.hpp"
#include "workloads.hpp"

namespace {

using namespace pipebench;
namespace env = atlas::env;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "atlas_pipebench: " << why
            << "\nusage: atlas_pipebench --workload NAME --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0' && value[0] != '-';
      if (!have_seed) usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Restrict the process to the CPU it runs on now; threads started later
/// inherit the mask.
void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot pin the process to one CPU");
  }
}

/// CPUs the process may run on.
std::uint64_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
}

double quantile_ms(const atlas::telemetry::HistogramData& h, double q) {
  return h.empty() ? 0.0 : 1e-6 * static_cast<double>(h.quantile(q));
}

/// The reference optimum phi* of Eqs. 10-11, searched on the workload's
/// real backend in a service of its own, so neither its time nor its
/// queries count in a pass. The search seed is fixed: phi* is a property of
/// the workload, not of the run.
core::OracleOptimum find_oracle(const WorkloadSpec& spec) {
  env::EnvService service(env::EnvServiceOptions{.threads = spec.compute_threads() - 1});
  const env::BackendId real = service.add_real_network();
  return core::find_optimal_config(service, real, spec.options.stage3.sla,
                                   spec.options.stage3.workload, /*budget=*/40, /*seed=*/19);
}

/// Metrics in declaration order, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void write(atlas::telemetry::JsonWriter& json) const {
    json.begin_object();
    for (const Entry& e : entries_) {
      json.key(e.name);
      json.begin_object();
      json.field("value", std::isfinite(e.value) ? e.value : 0.0);
      json.field("unit", e.unit);
      json.end_object();
    }
    json.end_object();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Metrics metrics;

  /// Count one pass and the checks it failed.
  void record(std::size_t pass, const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    correct = false;
    for (const std::string& f : failures) problems.push_back("pass " + std::to_string(pass) + ": " + f);
  }
};

std::size_t pass_count(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(seconds / spec.nominal_pass_s)));
}

/// Mean resource usage F(phi_j) over the online trace: Eq. 10's average
/// usage regret plus the constant F(phi*). The regret itself sits near zero
/// in this reproduction (short online traces under-provision about as often
/// as they over-provision), so it cannot carry a relative bound; the usage
/// can, and it is lower for a pipeline that meets the SLA more cheaply.
double online_usage(const std::vector<core::OnlineStep>& history) {
  double sum = 0.0;
  for (const core::OnlineStep& step : history) sum += step.usage;
  return history.empty() ? 0.0 : sum / static_cast<double>(history.size());
}

// ---- end-to-end run -----------------------------------------------------------

/// Set-up is tens of microseconds in-process, so setup_s is the median of
/// many probes; a probe builds a pass's stack and stops at the first stage's
/// start. The probes are spread over the run, a group before each pass, and
/// scaled as that pass is. The first probe after a pass's teardown runs on
/// cold caches and just-released memory (about 3x slower), so each group
/// starts with one uncounted probe.
constexpr std::size_t kSetupProbes = 60;

void probe_group(const WorkloadSpec& spec, std::size_t counted, std::vector<double>& setup) {
  probe_setup(spec);
  for (std::size_t i = 0; i < counted; ++i) setup.push_back(probe_setup(spec));
}

void run_end_to_end(const WorkloadSpec& spec, const Args& args, Outcome& out) {
  const core::OracleOptimum oracle = find_oracle(spec);
  const std::size_t passes = pass_count(spec, args.seconds);
  const std::size_t probes_per_pass = (kSetupProbes + passes - 1) / passes;
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> raw_setup;
  std::vector<double> raw_wall;
  std::vector<double> calibration;
  std::vector<double> usage;
  std::vector<double> usage_regret;
  std::vector<double> qoe_regret;
  std::vector<double> online;
  for (std::size_t p = 0; p < passes; ++p) {
    // The calibration brackets the probes and the pass, with no pass stack
    // alive, and its mean sets the pass's scale to the reference host.
    const double before = calibration_s();
    std::vector<double> probes;
    probe_group(spec, probes_per_pass, probes);
    const std::uint64_t seed = pass_seed(args.seed, p);
    const PassResult pass = run_pass(spec, seed);
    const double after = calibration_s();
    const double scale = kReferenceCalibrationS / (0.5 * (before + after));
    calibration.push_back(before);
    calibration.push_back(after);
    raw_wall.push_back(pass.wall_s);
    wall.push_back(pass.wall_s * scale);
    for (double s : probes) {
      raw_setup.push_back(s);
      setup.push_back(s * scale);
    }
    std::vector<std::string> failures = check_pass(spec, pass);
    if (spec.shape == Shape::kFarm &&
        run_pass(spec, seed, {}, /*in_process=*/true).hash != pass.hash) {
      failures.push_back("farm result differs from in-process");
    }
    out.record(p, failures);
    const core::RegretTrace regret = core::compute_regret(pass.result.online.history, oracle);
    usage.push_back(online_usage(pass.result.online.history));
    usage_regret.push_back(regret.avg_usage_regret);
    qoe_regret.push_back(regret.avg_qoe_regret);
    online.push_back(static_cast<double>(pass.stats.online_queries));
    std::fprintf(stderr, "pass %zu: wall %.4f s (scaled %.4f s), calibration %.2f ms, "
                 "online usage %.5f (Eq. 10 regret %.5f), qoe regret %.5f\n", p, pass.wall_s,
                 wall.back(), 0.5e3 * (before + after), usage.back(), regret.avg_usage_regret,
                 regret.avg_qoe_regret);
  }
  std::fprintf(stderr, "oracle phi*: usage %.5f qoe %.5f; mean Eq. 10 usage regret %.5f\n",
               oracle.usage, oracle.qoe, mean(usage_regret));
  std::fprintf(stderr, "as measured: median wall %.4f s, median setup %.6f s; median calibration "
               "%.2f ms (reference %.2f ms)\n", median(raw_wall), median(raw_setup),
               1e3 * median(calibration), 1e3 * kReferenceCalibrationS);
  // Pass walls differ by seed (configurations cost differently) and slow
  // down in bursts when the host is busy; the median over the run's scaled
  // passes rides out bursts shorter than half the run. Usage and regrets
  // are deterministic per seed, so their mean over the passes is the
  // steadier estimate.
  out.metrics.add("wall_s", median(wall), "s");
  out.metrics.add("setup_s", median(setup), "s");
  out.metrics.add("online_usage", mean(usage), "ratio");
  out.metrics.add("qoe_regret", mean(qoe_regret), "ratio");
  out.metrics.add("online_queries", median(online), "count");
  // The in-process reference passes hold one service to the farm's three,
  // so the farm passes set the peak.
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---- traced run -----------------------------------------------------------------

struct LayerTotals {
  std::size_t passes = 0;
  std::array<double, 3> stage_wall{};
  std::array<double, 3> stage_cpu{};
  std::array<double, 3> stage_episode{};
  std::array<ReplayTimes, 3> replay{};
  double offline_queries = 0, episodes_env = 0, hits = 0, lookups = 0, cache_entries = 0;
  double failed = 0, rpc_retries = 0, rpc_failures = 0, redispatched = 0;
  atlas::telemetry::HistogramData query_ns, queue_depth, rtt_ns, episode_ns, worker_ns;
  double episode_count = 0, busy_s = 0, pool_busy_s = 0, pool_capacity_s = 0;
  std::vector<double> overhead;
  std::vector<double> rpc_added;
};

void accumulate(const WorkloadSpec& spec, const PassResult& traced, const Recorder& client,
                const Recorder& worker, LayerTotals& t) {
  ++t.passes;
  for (std::size_t s = 0; s < 3; ++s) {
    t.stage_wall[s] += traced.stages[s].wall_s;
    t.stage_cpu[s] += traced.stages[s].thread_cpu_s;
    t.stage_episode[s] += traced.stages[s].driver_episode_s;
  }
  const env::EnvServiceStats& st = traced.stats;
  t.offline_queries += static_cast<double>(st.offline_queries);
  t.hits += static_cast<double>(st.cache_hits);
  t.lookups += static_cast<double>(st.cache_hits + st.cache_misses);
  t.cache_entries += static_cast<double>(traced.cache_entries);
  t.query_ns.merge(st.query_latency_ns);
  t.queue_depth.merge(st.queue_depth);
  for (const env::BackendStats& b : st.backends) {
    t.episodes_env += static_cast<double>(b.episodes);
    t.failed += static_cast<double>(b.rejected() + b.rpc_failures);
    t.rpc_retries += static_cast<double>(b.rpc_retries);
    t.rpc_failures += static_cast<double>(b.rpc_failures);
    t.rtt_ns.merge(b.rpc_rtt_ns);
  }
  t.redispatched += static_cast<double>(st.farm.episodes_redispatched);
  t.episode_ns.merge(client.episode_ns());
  t.episode_ns.merge(worker.episode_ns());
  t.worker_ns.merge(worker.episode_ns());
  t.episode_count += static_cast<double>(client.episodes() + worker.episodes());
  t.busy_s += 1e-9 * static_cast<double>(client.busy_ns() + worker.busy_ns());
  t.pool_busy_s += 1e-9 * static_cast<double>(client.pool_busy_ns() + worker.pool_busy_ns());
  t.pool_capacity_s +=
      traced.wall_s * static_cast<double>(spec.compute_threads() - 1);
}

/// Per stage: stage wall = driver CPU + driver-run episodes + env wait, with
/// the replayed surrogate beside driver CPU and its unattributed remainder.
void print_attribution(const WorkloadSpec& spec, const LayerTotals& t) {
  const double n = static_cast<double>(std::max<std::size_t>(1, t.passes));
  std::fprintf(stderr,
               "attribution per pass (%s, mean of %zu traced passes, seconds)\n"
               "%-7s %9s %11s %11s %9s %10s %9s %13s %9s\n",
               spec.name.c_str(), t.passes, "stage", "wall", "driver_cpu", "driver_eps",
               "env_wait", "closes_to", "replayed", "unattributed", "share");
  double wall = 0, replay = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const double w = t.stage_wall[s] / n;
    const double cpu = (t.stage_cpu[s] - t.stage_episode[s]) / n;
    const double eps = t.stage_episode[s] / n;
    const double wait = (t.stage_wall[s] - t.stage_cpu[s]) / n;
    const double r = t.replay[s].total() / n;
    wall += w;
    replay += r;
    std::fprintf(stderr, "%-7zu %9.4f %11.4f %11.4f %9.4f %10.4f %9.4f %13.4f %8.1f%%\n",
                 s + 1, w, cpu, eps, wait, cpu + eps + wait, r, cpu - r,
                 w > 0 ? 100.0 * r / w : 0.0);
  }
  std::fprintf(stderr, "replayed surrogate share of local stage time: %.1f%%\n",
               wall > 0 ? 100.0 * replay / wall : 0.0);
}

void run_traced(const WorkloadSpec& spec, const Args& args, Outcome& out) {
  // Each traced pass costs an untraced twin, the replay and (farm) an
  // in-process reference, so a third as many passes fill the time.
  const std::size_t passes = std::max<std::size_t>(2, pass_count(spec, args.seconds) / 3);
  LayerTotals t;
  std::vector<double> calibration;
  for (std::size_t p = 0; p < passes; ++p) {
    calibration.push_back(calibration_s());
    const std::uint64_t seed = pass_seed(args.seed, p);
    Recorder client;
    Recorder worker;
    auto traced_pass = [&] {
      return run_pass(spec, seed, Probes{&client, spec.shape == Shape::kFarm ? &worker : nullptr});
    };
    // Alternate which twin runs first, so warm-up favours neither side of
    // trace.overhead_ratio.
    PassResult plain;
    PassResult traced;
    if (p % 2 == 0) {
      plain = run_pass(spec, seed);
      traced = traced_pass();
    } else {
      traced = traced_pass();
      plain = run_pass(spec, seed);
    }
    out.record(p, check_pass(spec, plain));
    std::vector<std::string> failures = check_pass(spec, traced);
    if (traced.hash != plain.hash) failures.push_back("traced result differs from untraced");
    if (spec.shape == Shape::kFarm) {
      const PassResult ref = run_pass(spec, seed, {}, /*in_process=*/true);
      if (ref.hash != plain.hash) failures.push_back("farm result differs from in-process");
      t.rpc_added.push_back(plain.wall_s - ref.wall_s);
    }
    out.record(p, failures);
    t.overhead.push_back(traced.wall_s / plain.wall_s);
    accumulate(spec, traced, client, worker, t);
    const auto replay = replay_surrogate(pass_options(spec, seed), traced.result);
    for (std::size_t s = 0; s < 3; ++s) t.replay[s] += replay[s];
  }
  print_attribution(spec, t);

  const double n = static_cast<double>(t.passes);
  Metrics& m = out.metrics;
  double driver_cpu = 0;
  double stage_wall = 0;
  ReplayTimes replay;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string prefix = "atlas.stage" + std::to_string(s + 1) + ".";
    const std::size_t iters = spec.stage_iterations(static_cast<int>(s) + 1);
    m.add(prefix + "iter_ms", iters == 0 ? 0.0 : 1e3 * t.stage_wall[s] / n / iters, "ms");
    m.add(prefix + "driver_cpu_s", (t.stage_cpu[s] - t.stage_episode[s]) / n, "s");
    m.add(prefix + "driver_episode_s", t.stage_episode[s] / n, "s");
    m.add(prefix + "env_wait_s", (t.stage_wall[s] - t.stage_cpu[s]) / n, "s");
    driver_cpu += (t.stage_cpu[s] - t.stage_episode[s]) / n;
    stage_wall += t.stage_wall[s] / n;
    replay += t.replay[s];
  }
  m.add("nn.bnn_train_s", replay.bnn_train_s / n, "s");
  m.add("nn.thompson_scan_s", replay.thompson_scan_s / n, "s");
  m.add("nn.predict_mean_s", replay.predict_mean_s / n, "s");
  m.add("gp.fit_s", replay.gp_fit_s / n, "s");
  m.add("gp.predict_s", replay.gp_predict_s / n, "s");
  m.add("bo.sample_s", replay.bo_sample_s / n, "s");
  m.add("atlas.unattributed_s", driver_cpu - replay.total() / n, "s");
  m.add("atlas.surrogate_share", stage_wall > 0 ? replay.total() / n / stage_wall : 0.0,
        "ratio");
  m.add("env.offline_queries", t.offline_queries / n, "count");
  m.add("env.episodes", t.episodes_env / n, "count");
  m.add("env.cache_hit_ratio", t.lookups > 0 ? t.hits / t.lookups : 0.0, "ratio");
  m.add("env.cache_entries", t.cache_entries / n, "count");
  m.add("env.query_ms.p50", quantile_ms(t.query_ns, 0.50), "ms");
  m.add("env.query_ms.p99", quantile_ms(t.query_ns, 0.99), "ms");
  m.add("env.queue_depth.p99",
        t.queue_depth.empty() ? 0.0 : static_cast<double>(t.queue_depth.quantile(0.99)),
        "count");
  m.add("env.failed", t.failed / n, "count");
  m.add("episode.count", t.episode_count / n, "count");
  m.add("episode.busy_s", t.busy_s / n, "s");
  m.add("episode.ms.p50", quantile_ms(t.episode_ns, 0.50), "ms");
  m.add("episode.ms.p99", quantile_ms(t.episode_ns, 0.99), "ms");
  m.add("episode.pool_busy_ratio", t.pool_capacity_s > 0 ? t.pool_busy_s / t.pool_capacity_s : 0.0,
        "ratio");
  m.add("rpc.rtt_ms.p50", quantile_ms(t.rtt_ns, 0.50), "ms");
  m.add("rpc.rtt_ms.p99", quantile_ms(t.rtt_ns, 0.99), "ms");
  m.add("rpc.worker_ms.p50", quantile_ms(t.worker_ns, 0.50), "ms");
  m.add("rpc.retries", t.rpc_retries / n, "count");
  m.add("rpc.failures", t.rpc_failures / n, "count");
  m.add("farm.redispatched", t.redispatched / n, "count");
  m.add("rpc.added_s", median(t.rpc_added), "s");
  m.add("trace.overhead_ratio", median(t.overhead), "ratio");
  m.add("host.calibration_ms", 1e3 * median(calibration), "ms");
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Machine context, printed with every result: one JSON line before it.
void print_context(const WorkloadSpec& spec, const Args& args) {
  atlas::telemetry::JsonWriter json(std::cout);
  json.begin_object();
  json.key("context");
  json.begin_object();
  json.field("workload", spec.name);
  json.field("seed", args.seed);
  json.field("seconds", args.seconds);
  json.field("trace", args.trace);
  json.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("cpus", allowed_cpus());
  json.field("compiler", compiler());
  json.field("build_type", std::string(PIPEBENCH_BUILD_TYPE));
  json.field("pool_threads", static_cast<std::uint64_t>(spec.pool_threads));
  json.field("farm_workers", static_cast<std::uint64_t>(spec.farm_workers));
  json.field("worker_threads", static_cast<std::uint64_t>(spec.worker_threads));
  json.field("compute_threads", static_cast<std::uint64_t>(spec.compute_threads()));
  json.end_object();
  json.end_object();
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  WorkloadSpec spec;
  try {
    spec = make_workload(args.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  atlas::common::set_log_threshold(atlas::common::LogLevel::kWarn);

  Outcome out;
  try {
    if (spec.one_cpu) pin_to_one_cpu();
    if (args.trace == 1) {
      run_traced(spec, args, out);
    } else {
      run_end_to_end(spec, args, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "atlas_pipebench: " << e.what() << '\n';
    return 1;
  }
  for (const std::string& p : out.problems) std::cerr << "check failed: " << p << '\n';

  print_context(spec, args);
  atlas::telemetry::JsonWriter json(std::cout);
  json.begin_object();
  json.field("correct", out.correct);
  json.field("attempted", out.attempted);
  json.field("failed", out.failed);
  json.key("metrics");
  out.metrics.write(json);
  json.end_object();
  std::cout << std::endl;
  return 0;
}
