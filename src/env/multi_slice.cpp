#include "env/multi_slice.hpp"

#include <stdexcept>

#include <cmath>
#include <memory>

#include "app/frame_app.hpp"
#include "des/event_queue.hpp"
#include "lte/mac.hpp"
#include "math/rng.hpp"
#include "net/backhaul.hpp"
#include "net/edge.hpp"

namespace atlas::env {

using atlas::math::Rng;

namespace {

/// Everything one slice owns during a shared episode.
struct SliceRuntime {
  SliceConfig config;
  std::unique_ptr<lte::UeRadio> ue;
  std::unique_ptr<net::TransportLink> ul_link;
  std::unique_ptr<net::TransportLink> dl_link;
  std::unique_ptr<net::CoreHop> core;
  std::unique_ptr<net::ComputeQueue> edge;
  std::unique_ptr<app::FrameApp> frame_app;
  std::vector<double> frame_bits;
  Rng rng{0};
  EpisodeResult result;
};

}  // namespace

MultiSliceResult run_multi_slice_episode(const NetworkProfile& profile,
                                         const std::vector<SliceSpec>& specs,
                                         double duration_ms, std::uint64_t seed) {
  // run_until(NaN or +inf) would tick forever.
  if (!(std::isfinite(duration_ms) && duration_ms > 0.0)) {
    throw std::invalid_argument("run_multi_slice_episode: duration_ms must be finite and > 0");
  }
  des::EventQueue events;
  Rng master(seed);
  app::AppTrafficModel traffic_model;
  traffic_model.loading_base_ms = profile.loading_base_ms;
  traffic_model.loading_jitter_ms = profile.loading_jitter_ms;
  const double result_bits = traffic_model.result_kbits * 1e3;

  std::vector<std::unique_ptr<SliceRuntime>> slices;
  std::vector<lte::SliceRadioShare> shares;
  slices.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    auto rt = std::make_unique<SliceRuntime>();
    rt->config = specs[s].config.clamped();
    rt->rng = master.fork(s + 1);
    rt->ue = std::make_unique<lte::UeRadio>(profile.ul, profile.dl, specs[s].distance_m,
                                            profile.fading_sigma_db, profile.fading_rho,
                                            profile.cqi_lag_ttis);
    const double meter = rt->config.backhaul_mbps + profile.backhaul_headroom_mbps;
    rt->ul_link = std::make_unique<net::TransportLink>(meter, profile.backhaul_delay_ms,
                                                       profile.backhaul_jitter);
    rt->dl_link = std::make_unique<net::TransportLink>(meter, profile.backhaul_delay_ms,
                                                       profile.backhaul_jitter);
    rt->core = std::make_unique<net::CoreHop>(profile.core_processing_ms);
    rt->edge = std::make_unique<net::ComputeQueue>(profile.compute, rt->config.cpu_ratio);
    rt->frame_app = std::make_unique<app::FrameApp>(traffic_model, specs[s].traffic, rt->rng);

    lte::SliceRadioShare share;
    share.prb_cap_ul = static_cast<int>(std::lround(rt->config.bandwidth_ul));
    share.prb_cap_dl = static_cast<int>(std::lround(rt->config.bandwidth_dl));
    share.mcs_offset_ul = static_cast<int>(std::lround(rt->config.mcs_offset_ul));
    share.mcs_offset_dl = static_cast<int>(std::lround(rt->config.mcs_offset_dl));
    share.ues = {rt->ue.get()};
    shares.push_back(share);
    slices.push_back(std::move(rt));
  }

  // Wire each slice's application into its uplink queue and edge pipeline.
  for (auto& rt_ptr : slices) {
    SliceRuntime& rt = *rt_ptr;
    rt.frame_app->start(events, [&rt, &events, &profile](std::uint64_t id, double bits) {
      if (rt.frame_bits.size() <= id) rt.frame_bits.resize(id + 1, 0.0);
      rt.frame_bits[id] = bits;
      const double access =
          profile.sr_access_base_ms + rt.rng.uniform(0.0, profile.sr_access_jitter_ms);
      rt.ue->ul_queue().push(id, bits, events.now(), access);
    });
  }

  auto frame_left_ran = [&](SliceRuntime& rt, std::uint64_t id) {
    const double at_switch = rt.ul_link->send(events.now(), rt.frame_bits[id], rt.rng);
    const double at_edge = rt.core->forward(at_switch);
    events.schedule_at(at_edge, [&rt, &events, result_bits, id] {
      const double computed = rt.edge->process(events.now(), rt.rng);
      events.schedule_at(computed, [&rt, &events, result_bits, id] {
        const double at_switch_dl = rt.core->forward(events.now());
        const double at_enb = rt.dl_link->send(at_switch_dl, result_bits, rt.rng);
        events.schedule_at(at_enb, [&rt, &events, result_bits, id] {
          rt.ue->dl_queue().push(id, result_bits, events.now(), 0.0);
        });
      });
    });
  };

  // Per-TTI work runs as a fused stepper (never touches the event heap);
  // the scratch buffers make steady-state TTIs allocation-free.
  Rng radio_rng = master.fork(0x5C1CE);
  lte::TtiScratch scratch;
  events.add_stepper(lte::kTtiMs, [&] {
    for (auto& rt : slices) rt->ue->step_fading(radio_rng);
    if (lte::direction_has_active_ue(shares, /*uplink=*/true, events.now())) {
      lte::run_direction_tti(shares, /*uplink=*/true, events.now(), radio_rng, scratch);
      for (const auto& span : scratch.completed) {
        for (auto& rt : slices) {
          if (rt->ue.get() != span.ue) continue;
          for (std::uint32_t i = 0; i < span.count; ++i) {
            frame_left_ran(*rt, scratch.ids[span.begin + i]);
          }
        }
      }
    }
    if (lte::direction_has_active_ue(shares, /*uplink=*/false, events.now())) {
      lte::run_direction_tti(shares, /*uplink=*/false, events.now(), radio_rng, scratch);
      for (const auto& span : scratch.completed) {
        for (auto& rt : slices) {
          if (rt->ue.get() != span.ue) continue;
          for (std::uint32_t i = 0; i < span.count; ++i) {
            const std::uint64_t id = scratch.ids[span.begin + i];
            SliceRuntime* rtp = rt.get();
            events.schedule_in(profile.ue_proc_ms,
                               [rtp, id] { rtp->frame_app->on_result(id); });
          }
        }
      }
    }
  });
  events.run_until(duration_ms);

  MultiSliceResult out;
  for (auto& rt : slices) {
    rt->result.latencies_ms = rt->frame_app->latencies();
    rt->result.frames_completed = rt->result.latencies_ms.size();
    out.per_slice.push_back(std::move(rt->result));
  }
  return out;
}

MultiSliceEnvironment::MultiSliceEnvironment(NetworkProfile profile,
                                             std::vector<SliceSpec> background)
    : profile_(std::move(profile)), background_(std::move(background)) {}

EpisodeResult MultiSliceEnvironment::run(const SliceConfig& config,
                                         const Workload& workload) const {
  if (workload.random_walk || workload.extra_users != 0 || workload.collect_traces) {
    // The shared-carrier runner has no per-slice mobility, background-user,
    // or tracing support; silently running a stationary/untraced episode
    // would corrupt mobility (Fig. 10) / isolation (Fig. 11) analyses.
    throw std::invalid_argument(
        "MultiSliceEnvironment: random_walk, extra_users, and collect_traces "
        "are not supported by multi-slice episodes");
  }
  std::vector<SliceSpec> slices;
  slices.reserve(background_.size() + 1);
  SliceSpec target;
  target.config = config;
  target.traffic = workload.traffic;
  target.distance_m = workload.distance_m;
  slices.push_back(target);
  slices.insert(slices.end(), background_.begin(), background_.end());
  auto result =
      run_multi_slice_episode(profile_, slices, workload.duration_ms, workload.seed);
  return std::move(result.per_slice.front());
}

}  // namespace atlas::env
