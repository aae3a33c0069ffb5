#include "env/client.hpp"

#include <stdexcept>
#include <utility>

namespace atlas::env {

namespace {

/// Non-owning shared_ptr view of a caller-owned environment.
std::shared_ptr<const NetworkEnvironment> borrow(const NetworkEnvironment& environment) {
  return std::shared_ptr<const NetworkEnvironment>(&environment,
                                                   [](const NetworkEnvironment*) {});
}

}  // namespace

EpisodeResult QueryHandle::get() {
  if (!future_.valid()) {
    throw std::logic_error(
        "QueryHandle::get(): handle is default-constructed, moved-from, or already consumed");
  }
  return future_.get();
}

BackendId EnvClient::register_backend(const NetworkEnvironment& environment, std::string name,
                                      BackendKind kind) {
  return register_backend(borrow(environment), std::move(name), kind);
}

BackendId EnvClient::register_backend(std::shared_ptr<const NetworkEnvironment> environment,
                                      std::string name, BackendKind kind) {
  if (environment == nullptr) {
    throw std::invalid_argument("EnvClient: null environment");
  }
  return register_backend(
      std::make_shared<LocalBackend>(std::move(environment), std::move(name), kind));
}

BackendId EnvClient::add_simulator(const SimParams& params, std::string name) {
  return register_backend(std::make_shared<Simulator>(params), std::move(name),
                          BackendKind::kOffline);
}

BackendId EnvClient::add_real_network(std::string name) {
  return register_backend(std::make_shared<RealNetwork>(), std::move(name),
                          BackendKind::kOnline);
}

BackendId EnvClient::add_multi_slice(NetworkProfile profile, std::vector<SliceSpec> background,
                                     std::string name, BackendKind kind) {
  return register_backend(
      std::make_shared<MultiSliceEnvironment>(std::move(profile), std::move(background)),
      std::move(name), kind);
}

EpisodeResult EnvClient::run(BackendId backend, const SliceConfig& config,
                             const Workload& workload) {
  EnvQuery q;
  q.backend = backend;
  q.config = config;
  q.workload = workload;
  return run(q);
}

double EnvClient::measure_qoe(const EnvQuery& query, double threshold_ms) {
  return run(query).qoe(threshold_ms);
}

double EnvClient::measure_qoe(BackendId backend, const SliceConfig& config,
                              const Workload& workload, double threshold_ms) {
  return run(backend, config, workload).qoe(threshold_ms);
}

std::vector<double> EnvClient::measure_qoe_batch(std::span<const EnvQuery> queries,
                                                 double threshold_ms) {
  const auto episodes = run_batch(queries);
  std::vector<double> qoes(episodes.size(), 0.0);
  for (std::size_t i = 0; i < episodes.size(); ++i) qoes[i] = episodes[i].qoe(threshold_ms);
  return qoes;
}

void EnvServiceStats::add_backend(BackendStats backend) {
  if (backend.kind == BackendKind::kOffline) {
    offline_queries += backend.queries;
  } else {
    online_queries += backend.queries;
  }
  cache_hits += backend.cache_hits;
  cache_misses += backend.cache_misses;
  backends.push_back(std::move(backend));
}

EnvServiceStats EnvServiceStats::since(const EnvServiceStats& start) const {
  EnvServiceStats delta = *this;
  for (std::size_t i = 0; i < start.backends.size() && i < delta.backends.size(); ++i) {
    BackendStats& b = delta.backends[i];
    const BackendStats& s = start.backends[i];
    b.queries -= s.queries;
    b.cache_hits -= s.cache_hits;
    b.cache_misses -= s.cache_misses;
    b.episodes -= s.episodes;
    b.rpc_retries -= s.rpc_retries;
    b.rpc_failures -= s.rpc_failures;
    b.rpc_reconnects -= s.rpc_reconnects;
    b.rpc_rtt_ns.subtract(s.rpc_rtt_ns);
  }
  delta.offline_queries -= start.offline_queries;
  delta.online_queries -= start.online_queries;
  delta.cache_hits -= start.cache_hits;
  delta.cache_misses -= start.cache_misses;
  FarmView& farm = delta.farm;
  farm.workers_joined -= start.farm.workers_joined;
  farm.workers_lost -= start.farm.workers_lost;
  farm.heartbeats_missed -= start.farm.heartbeats_missed;
  farm.episodes_redispatched -= start.farm.episodes_redispatched;
  farm.hedges -= start.farm.hedges;
  farm.hedge_wins -= start.farm.hedge_wins;
  // Histogram buckets are monotonic counters too: the difference is this
  // phase's latency/queue-depth distribution.
  delta.query_latency_ns.subtract(start.query_latency_ns);
  delta.queue_depth.subtract(start.queue_depth);
  delta.rpc_service_ns.subtract(start.rpc_service_ns);
  return delta;
}

namespace {

std::string quantile_ms(const telemetry::HistogramData& histogram, double q) {
  if (histogram.empty()) return "-";
  return common::fmt(static_cast<double>(histogram.quantile(q)) / 1e6, 2);
}

}  // namespace

common::Table EnvServiceStats::summary() const {
  std::vector<std::string> header = {"backend", "kind", "queries", "episodes", "rpc retries",
                                     "rpc failures", "rpc p50 ms", "rpc p99 ms"};
  const std::size_t width = header.size();
  common::Table table(std::move(header));
  // Footer rows fill their leading cells only; the rest of the width is
  // blank, so a column change is an edit to the header and the full rows.
  const auto add_footer = [&table, width](std::vector<std::string> cells) {
    if (cells.size() < width) cells.resize(width);
    table.add_row(std::move(cells));
  };
  for (const BackendStats& b : backends) {
    table.add_row({b.name, b.kind == BackendKind::kOnline ? "online" : "offline",
                   std::to_string(b.queries), std::to_string(b.episodes),
                   std::to_string(b.rpc_retries), std::to_string(b.rpc_failures),
                   quantile_ms(b.rpc_rtt_ns, 0.50), quantile_ms(b.rpc_rtt_ns, 0.99)});
  }
  std::uint64_t episodes = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  std::uint64_t reconnects = 0;
  telemetry::HistogramData rtt;
  for (const BackendStats& b : backends) {
    episodes += b.episodes;
    retries += b.rpc_retries;
    failures += b.rpc_failures;
    reconnects += b.rpc_reconnects;
    rtt.merge(b.rpc_rtt_ns);
  }
  table.add_row({"TOTAL", "", std::to_string(total_queries()), std::to_string(episodes),
                 std::to_string(retries), std::to_string(failures), quantile_ms(rtt, 0.50),
                 quantile_ms(rtt, 0.99)});
  // Service-level serving latency: what a caller of run()/submit() saw.
  add_footer({"query latency", "p50 " + quantile_ms(query_latency_ns, 0.50) + " ms",
              "p99 " + quantile_ms(query_latency_ns, 0.99) + " ms",
              "p999 " + quantile_ms(query_latency_ns, 0.999) + " ms",
              "max " + quantile_ms(query_latency_ns, 1.0) + " ms"});
  if (farm.active) {
    add_footer({"farm", "serving " + std::to_string(farm.workers_serving),
                "suspect " + std::to_string(farm.workers_suspect),
                "joined " + std::to_string(farm.workers_joined),
                "lost " + std::to_string(farm.workers_lost),
                "redispatched " + std::to_string(farm.episodes_redispatched)});
  }
  // Degradation visibility: only rendered once a hedge or a reconnect has
  // happened, so quiet deployments keep the familiar table.
  if (farm.hedges > 0 || reconnects > 0) {
    add_footer({"overload", "hedges " + std::to_string(farm.hedges),
                "hedge wins " + std::to_string(farm.hedge_wins),
                "reconnects " + std::to_string(reconnects)});
  }
  return table;
}

}  // namespace atlas::env
