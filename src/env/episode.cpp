#include "env/episode.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "app/frame_app.hpp"
#include "app/qoe.hpp"
#include "common/arena.hpp"
#include "des/event_queue.hpp"
#include "lte/mac.hpp"
#include "lte/ue_batch.hpp"
#include "math/rng.hpp"
#include "net/backhaul.hpp"
#include "net/edge.hpp"

namespace atlas::env {

using atlas::math::Rng;

double EpisodeResult::qoe(double threshold_ms) const {
  return app::qoe_from_latencies(latencies_ms, threshold_ms);
}

atlas::math::Summary EpisodeResult::latency_summary() const {
  return atlas::math::summarize(latencies_ms);
}

namespace {

/// Everything one episode owns, gathered behind a single pointer so every
/// event callback is a {state pointer, frame id} pair — 16 trivially
/// copyable bytes, stored inline in the event queue (no allocation per
/// event). The per-TTI and per-100ms work runs as fused steppers, so the
/// event heap only carries the irregular app/backhaul events.
///
/// The call order of every Rng draw is identical to the pre-rewrite nested-
/// lambda formulation — the golden-episode tests pin this bit-exactly.
struct EpisodeState {
  const NetworkProfile& profile;
  const Workload& workload;
  const SliceConfig config;
  Rng rng;
  des::EventQueue events;

  // ---- RAN ----------------------------------------------------------------
  // Two tiers: the foreground slice UE runs the exact per-UE DES path, the
  // background full-buffer population is swept as a structure-of-arrays
  // batch (one fused call per TTI instead of N per-UE calls). The batch's
  // storage lives in the per-worker episode arena, so constructing even a
  // 256-UE population is a handful of bump allocations.
  lte::UeRadio slice_ue;
  lte::UeBatch background;
  // The foreground slice has one UE, so the MAC scheduler's even split would
  // grant it the whole slice budget, min(cap, kTotalPrbs), in every TTI it
  // has data; its TTIs run directly with that grant.
  int ul_grant = 0;
  int dl_grant = 0;
  int mcs_offset_ul = 0;
  int mcs_offset_dl = 0;
  int bg_prb_cap_dl = 0;                 ///< PRBs left to the background slice.
  std::vector<std::uint64_t> completed;  ///< SDUs the slice UE finished this TTI.

  // ---- TN / CN / EN -------------------------------------------------------
  net::TransportLink ul_link;
  net::TransportLink dl_link;
  net::CoreHop core;
  net::ComputeQueue edge;

  // ---- Application --------------------------------------------------------
  app::AppTrafficModel traffic_model;
  double result_bits;
  app::FrameApp frame_app;

  std::vector<FrameTrace> traces;    // indexed by frame id (§7.2's tracer)
  std::vector<double> frame_bits;    // indexed by frame id
  EpisodeResult result;

  static app::AppTrafficModel make_traffic_model(const NetworkProfile& p) {
    app::AppTrafficModel m;
    m.loading_base_ms = p.loading_base_ms;
    m.loading_jitter_ms = p.loading_jitter_ms;
    return m;
  }

  EpisodeState(common::Arena& arena, const NetworkProfile& p, const SliceConfig& raw_config,
               const Workload& wl)
      : profile(p),
        workload(wl),
        config(raw_config.clamped()),
        rng(wl.seed),
        slice_ue(p.ul, p.dl, wl.distance_m, p.fading_sigma_db, p.fading_rho, p.cqi_lag_ttis),
        // YouTube-style downlink load at a fixed 2 m: always-full DL buffer,
        // swept as one SoA batch per TTI.
        background(arena, wl.extra_users > 0 ? static_cast<std::size_t>(wl.extra_users) : 0,
                   p.dl, 2.0, p.fading_sigma_db, p.fading_rho, p.cqi_lag_ttis),
        ul_link(config.backhaul_mbps + p.backhaul_headroom_mbps, p.backhaul_delay_ms,
                p.backhaul_jitter),
        dl_link(config.backhaul_mbps + p.backhaul_headroom_mbps, p.backhaul_delay_ms,
                p.backhaul_jitter),
        core(p.core_processing_ms),
        edge(p.compute, config.cpu_ratio),
        traffic_model(make_traffic_model(p)),
        result_bits(traffic_model.result_kbits * 1e3),
        frame_app(traffic_model, wl.traffic, rng) {
    const int prb_cap_ul = static_cast<int>(std::lround(config.bandwidth_ul));
    const int prb_cap_dl = static_cast<int>(std::lround(config.bandwidth_dl));
    ul_grant = std::min(prb_cap_ul, lte::kTotalPrbs);
    dl_grant = std::min(prb_cap_dl, lte::kTotalPrbs);
    mcs_offset_ul = static_cast<int>(std::lround(config.mcs_offset_ul));
    mcs_offset_dl = static_cast<int>(std::lround(config.mcs_offset_dl));
    // The background slice holds the remaining PRBs; caps never overlap, so
    // radio isolation is structural (FlexRAN-style partitioning).
    bg_prb_cap_dl = lte::kTotalPrbs - prb_cap_dl;
  }

  FrameTrace& trace_of(std::uint64_t id) {
    if (traces.size() <= id) traces.resize(id + 1);
    return traces[id];
  }

  void on_frame_sent(std::uint64_t id, double bits) {
    if (frame_bits.size() <= id) frame_bits.resize(id + 1, 0.0);
    frame_bits[id] = bits;
    const double access =
        profile.sr_access_base_ms + rng.uniform(0.0, profile.sr_access_jitter_ms);
    slice_ue.ul_queue().push(id, bits, events.now(), access);
    if (workload.collect_traces) {
      FrameTrace& t = trace_of(id);
      t.id = id;
      t.created_ms = frame_app.created_at(id);
      t.sent_ms = events.now();
    }
  }

  // A frame that finished its uplink transmission traverses switch -> core ->
  // edge -> core -> switch and re-enters the RAN as a downlink result.
  void frame_left_ran(std::uint64_t id) {
    if (workload.collect_traces) trace_of(id).ul_done_ms = events.now();
    const double at_switch = ul_link.send(events.now(), frame_bits[id], rng);
    const double at_edge = core.forward(at_switch);
    events.schedule_at(at_edge, [s = this, id] { s->edge_arrival(id); });
  }

  void edge_arrival(std::uint64_t id) {
    const net::ServiceSpan span = edge.process_traced(events.now(), rng);
    if (workload.collect_traces) {
      FrameTrace& t = trace_of(id);
      t.edge_in_ms = events.now();
      t.compute_start_ms = span.start;
      t.compute_done_ms = span.done;
    }
    events.schedule_at(span.done, [s = this, id] { s->compute_done(id); });
  }

  void compute_done(std::uint64_t id) {
    const double at_switch_dl = core.forward(events.now());
    const double at_enb = dl_link.send(at_switch_dl, result_bits, rng);
    events.schedule_at(at_enb, [s = this, id] { s->enb_downlink(id); });
  }

  void enb_downlink(std::uint64_t id) {
    if (workload.collect_traces) trace_of(id).enb_dl_ms = events.now();
    slice_ue.dl_queue().push(id, result_bits, events.now(), 0.0);
  }

  void result_delivered(std::uint64_t id) {
    if (workload.collect_traces) trace_of(id).completed_ms = events.now();
    frame_app.on_result(id);
  }

  /// One TTI; returns the event queue's quiet hint (see quiet_until()).
  des::TimeMs tti_tick() {
    // Fading order is part of the determinism contract: foreground UE first,
    // then the background batch (which draws per-UE innovations in ascending
    // index order) — exactly the scalar engine's step sequence.
    slice_ue.step_fading(rng);
    background.step_fading(rng);

    // Idle fast-path: with nothing schedulable, run_tti_into would be a pure
    // no-op (no RNG draws, zero counters) — skip the call outright.
    // Background UEs never carry uplink data, so the uplink leg only looks
    // at the foreground slice.
    const double now = events.now();
    if (slice_ue.ul_queue().has_data(now)) {
      completed.clear();
      const lte::TtiStats ul =
          slice_ue.run_tti_into(/*uplink=*/true, now, ul_grant, mcs_offset_ul, rng, completed);
      result.ul_tb_total += ul.tb_total;
      result.ul_tb_err += ul.tb_err;
      for (const std::uint64_t id : completed) frame_left_ran(id);
    }

    // Downlink: the foreground UE first, then one batched sweep over the
    // background tier — the same slice order (and therefore the same RNG
    // draw order) as the scalar scheduler's [foreground, background] walk.
    const bool fg_dl_active = slice_ue.dl_queue().has_data(now);
    if (fg_dl_active) {
      completed.clear();
      const lte::TtiStats dl =
          slice_ue.run_tti_into(/*uplink=*/false, now, dl_grant, mcs_offset_dl, rng, completed);
      result.dl_tb_total += dl.tb_total;
      result.dl_tb_err += dl.tb_err;
      for (const std::uint64_t id : completed) {
        events.schedule_in(profile.ue_proc_ms, [s = this, id] { s->result_delivered(id); });
      }
    }
    if (!background.empty()) {
      // An active foreground slice consumes exactly its grant, so the
      // batch's budget is the scalar scheduler's remaining-PRB arithmetic in
      // closed form.
      const int budget =
          std::min(bg_prb_cap_dl, lte::kTotalPrbs - (fg_dl_active ? dl_grant : 0));
      lte::BatchTtiStats bg_stats;
      background.run_dl_tti(now, budget, /*mcs_offset=*/0, rng, bg_stats);
      result.dl_tb_total += bg_stats.tb_total;
      result.dl_tb_err += bg_stats.tb_err;
    }
    return fg_dl_active ? des::EventQueue::kNoHint : quiet_until();
  }

  /// Until when the coming ticks are provably quiet: without background UEs,
  /// a tick draws nothing but the slice UE's fading innovation and touches
  /// nothing else unless a queue has schedulable data, and data only arrives
  /// through heap events, which revoke the hint. So the hint is the earliest
  /// access-delay deadline of queued data (+inf when both queues are empty).
  /// The TTI stepper's catch-up replays the skipped ticks' fading steps:
  /// the same normals in the same order, because a skip always ends before
  /// any other source fires. A disabled fading process (the simulator) draws
  /// nothing and keeps its value at 0, so the CQI history a skipped tick
  /// would extend holds the same constant and no catch-up is needed.
  /// Background-UE episodes tick every TTI.
  des::TimeMs quiet_until() const {
    if (!background.empty()) return des::EventQueue::kNoHint;
    const lte::RadioQueue& ul = slice_ue.ul_queue();
    const lte::RadioQueue& dl = slice_ue.dl_queue();
    if (ul.has_data(events.now()) || dl.has_data(events.now())) return des::EventQueue::kNoHint;
    return std::min(ul.schedulable_at(), dl.schedulable_at());
  }

  /// The TTI stepper's catch-up: the fading steps of `ttis` skipped ticks.
  void catch_up_fading(std::uint64_t ttis) {
    for (std::uint64_t i = 0; i < ttis; ++i) slice_ue.step_fading(rng);
  }

  void mobility_step() {
    const double d = slice_ue.distance() + rng.normal(0.0, 0.25);
    slice_ue.set_distance(std::clamp(d, 0.5, 12.0));
  }

  void start() {
    // Registration order fixes the sequence-number layout and therefore the
    // same-instant event interleaving: frames first, then the mobility
    // stepper (when enabled), then the TTI stepper — exactly the order the
    // pre-rewrite engine armed its self-rescheduling events in.
    frame_app.start(events, [this](std::uint64_t id, double bits) { on_frame_sent(id, bits); });
    if (workload.random_walk) {
      events.add_stepper(100.0, [s = this] { s->mobility_step(); });
    }
    // Only a fading UE has work to catch up on; without it every skip stays
    // O(1).
    if (slice_ue.fading_enabled()) {
      events.add_stepper(lte::kTtiMs, [s = this] { return s->tti_tick(); },
                         [s = this](std::uint64_t ttis) { s->catch_up_fading(ttis); });
    } else {
      events.add_stepper(lte::kTtiMs, [s = this] { return s->tti_tick(); });
    }
  }
};

}  // namespace

EpisodeResult run_episode(const NetworkProfile& profile, const SliceConfig& raw_config,
                          const Workload& workload) {
  // run_until(NaN or +inf) would tick forever.
  if (!(std::isfinite(workload.duration_ms) && workload.duration_ms > 0.0)) {
    throw std::invalid_argument("run_episode: duration_ms must be finite and > 0");
  }
  // Per-worker episode arena: EnvService::run_batch fans episodes out over
  // stable pool threads, so each worker's thread_slot() slab is warm after
  // its first episode and per-episode setup performs no global allocation.
  // The scope resets the arena (O(1)) when the episode's state dies.
  common::Arena& arena = common::Arena::thread_slot();
  const common::ArenaScope arena_scope(arena);
  EpisodeState s(arena, profile, raw_config, workload);
  s.start();
  s.events.run_until(workload.duration_ms);

  s.result.latencies_ms = s.frame_app.latencies();
  s.result.frames_completed = s.result.latencies_ms.size();
  if (workload.collect_traces) {
    for (const auto& t : s.traces) {
      if (t.completed_ms > 0.0) s.result.traces.push_back(t);
    }
  }
  return std::move(s.result);
}

NetworkPerformance measure_network_performance(const NetworkProfile& profile,
                                               double duration_ms, std::uint64_t seed) {
  NetworkPerformance perf;
  Rng rng(seed);

  // ---- Full-buffer throughput + PER, one direction at a time --------------
  auto full_buffer = [&](bool uplink, double& mbps, double& per) {
    Rng episode_rng = rng.fork(uplink ? 0x11 : 0x22);
    lte::UeRadio ue(profile.ul, profile.dl, 1.0, profile.fading_sigma_db, profile.fading_rho,
                    profile.cqi_lag_ttis);
    (uplink ? ue.ul_queue() : ue.dl_queue()).set_full_buffer(true);
    std::vector<lte::SliceRadioShare> slices(1);
    slices[0].ues = {&ue};
    lte::TtiScratch scratch;
    double bits = 0.0;
    int tb_total = 0;
    int tb_err = 0;
    const auto ttis = static_cast<std::size_t>(duration_ms / lte::kTtiMs);
    for (std::size_t t = 0; t < ttis; ++t) {
      ue.step_fading(episode_rng);
      lte::run_direction_tti(slices, uplink, static_cast<double>(t) * lte::kTtiMs,
                             episode_rng, scratch);
      bits += scratch.delivered_bits;
      tb_total += scratch.tb_total;
      tb_err += scratch.tb_err;
    }
    mbps = bits / (duration_ms * 1e3);  // bits per ms*1e3 == Mbps
    per = tb_total > 0 ? static_cast<double>(tb_err) / static_cast<double>(tb_total) : 0.0;
  };
  full_buffer(true, perf.ul_mbps, perf.ul_per);
  full_buffer(false, perf.dl_mbps, perf.dl_per);

  // ---- Ping: 64-byte probe through the whole path (no slicing meter) ------
  {
    Rng ping_rng = rng.fork(0x33);
    const double probe_bits = 64.0 * 8.0;
    net::TransportLink ul_link(100.0, profile.backhaul_delay_ms, profile.backhaul_jitter);
    net::TransportLink dl_link(100.0, profile.backhaul_delay_ms, profile.backhaul_jitter);
    net::CoreHop core(profile.core_processing_ms);
    const std::size_t pings = std::max<std::size_t>(20, static_cast<std::size_t>(duration_ms / 500.0));
    double total = 0.0;
    double now = 0.0;
    for (std::size_t i = 0; i < pings; ++i) {
      now += 500.0;
      // UL: scheduling-request cycle + TTI alignment + first grant.
      double t = now + profile.sr_access_base_ms +
                 ping_rng.uniform(0.0, profile.sr_access_jitter_ms) +
                 ping_rng.uniform(0.0, lte::kTtiMs) + lte::kTtiMs;
      t = ul_link.send(t, probe_bits, ping_rng);
      t = core.forward(t);
      t += 0.2;  // edge ICMP echo
      t = core.forward(t);
      t = dl_link.send(t, probe_bits, ping_rng);
      t += ping_rng.uniform(0.0, lte::kTtiMs) + lte::kTtiMs;  // DL TTI alignment
      t += 2.0 * profile.ue_proc_ms;                          // modem + kernel, both ways
      total += t - now;
    }
    perf.ping_ms = total / static_cast<double>(pings);
  }
  return perf;
}

}  // namespace atlas::env
