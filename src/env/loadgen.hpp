#pragma once

/// Open-loop load generation for the serving stack (tools/atlas_loadgen and
/// the loadgen tests). Split in two so each half is testable on its own:
///
///   build_load_plan  — a DETERMINISTIC schedule of queries: Poisson arrival
///                      offsets (exponential inter-arrivals from math::Rng)
///                      and a synthetic query mix — metered online queries,
///                      trace-heavy episodes, fresh exploration. The same
///                      (options) always yields byte-identical queries.
///
///   run_load_point   — replay one plan against an EnvClient at its offered
///                      rate. Open-loop: arrivals fire on the wall clock
///                      regardless of completions, and per-query latency is
///                      measured completion MINUS SCHEDULED ARRIVAL, so queue
///                      build-up at saturation is charged to the queries that
///                      suffered it (no coordinated omission).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace atlas::env {

/// What one scheduled query is, for mix accounting.
enum class LoadKind {
  kFresh,   ///< New offline config + fresh seed (exploration).
  kOnline,  ///< Metered real-network query.
  kTrace,   ///< Fresh offline query with per-frame trace collection.
};

/// Query mix as fractions of offered load; the remainder after online +
/// trace is fresh exploration. Like Atlas's stages, no plan repeats a
/// (config, seed) key: every event is a new episode.
struct LoadMix {
  double online = 0.05;
  double trace = 0.10;
};

struct LoadPlanOptions {
  double qps = 200.0;         ///< Offered rate (Poisson arrivals at this mean).
  double duration_s = 2.0;    ///< Schedule horizon; ~qps*duration_s events.
  LoadMix mix;
  std::uint64_t seed = 7;     ///< Sole entropy source — plans are reproducible.
  double episode_ms = 40.0;   ///< Workload duration per query (sim time).
  /// Background-slice UEs per episode (the vectorized SoA tier). 0 keeps the
  /// historical foreground-only plans; >0 makes every scheduled episode carry
  /// that population, turning the serving sweep into a background-tier
  /// stress (bg16/bg64-shaped work behind the RPC/service layers).
  int extra_users = 0;
  BackendId offline_backend = 0;
  BackendId online_backend = 0;  ///< Used only when has_online.
  bool has_online = false;       ///< No online backend: online share becomes fresh.
};

struct LoadEvent {
  double arrival_s = 0.0;  ///< Offset from run start (sorted ascending).
  LoadKind kind = LoadKind::kFresh;
  EnvQuery query;
};

struct LoadPlan {
  std::vector<LoadEvent> events;
  double offered_qps = 0.0;
  double horizon_s = 0.0;
  std::size_t online = 0;
  std::size_t traces = 0;
  std::size_t fresh = 0;
};

/// Deterministic in `options` (same options => identical events, including
/// every EnvQuery field); throws std::invalid_argument on a non-positive
/// rate/horizon or a mix that sums past 1.
LoadPlan build_load_plan(const LoadPlanOptions& options);

struct LoadRunOptions {
  /// Client threads draining the arrival queue. This caps in-flight queries
  /// from the generator's side; keep it above the service's pool width so the
  /// service's own queue — not the generator — is what saturates.
  std::size_t workers = 32;
};

struct LoadPointResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< completed / wall time (start -> last completion).
  std::size_t scheduled = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;  ///< Queries that threw (e.g. RpcError); not in latency.
  double wall_s = 0.0;
  /// Completion - scheduled arrival, nanoseconds (open-loop latency).
  telemetry::HistogramData latency_ns;
  /// Client-side stats delta over this run (counters + serving histograms).
  EnvServiceStats stats;
};

/// Replay `plan` against `client`. Blocks until every event completed or
/// failed. Stats delta is computed from client.stats() before/after, so
/// concurrent foreign traffic on the client would pollute it — run points
/// sequentially on a quiet client.
LoadPointResult run_load_point(EnvClient& client, const LoadPlan& plan,
                               const LoadRunOptions& options = {});

}  // namespace atlas::env
