/// Where does the latency — and the sim-to-real gap — actually live?
///
/// Demonstrates the per-frame tracer (paper §7.2): every completed frame
/// records timestamps at each pipeline hop, so the end-to-end latency
/// decomposes into loading / uplink / transport / queueing / compute /
/// downlink segments. Comparing simulator vs real network per segment shows
/// exactly which mechanisms Stage 1's seven knobs can compensate and which
/// residual effects Stage 3 must learn online.

#include <iostream>

#include "common/table.hpp"
#include "env/env_service.hpp"
#include "env/trace.hpp"

int main() {
  using namespace atlas;

  env::EnvService service;
  const auto sim = service.add_simulator();  // spec defaults
  const auto calibrated = service.add_simulator(env::oracle_calibration(), "calibrated");
  const auto real = service.add_real_network();

  env::Workload wl;
  wl.duration_ms = 30000.0;
  wl.collect_traces = true;  // per-frame traces ride on the episode result
  wl.seed = 42;

  auto breakdown = [&](env::BackendId net, const env::SliceConfig& config) {
    env::EnvQuery q;
    q.backend = net;
    q.config = config;
    q.workload = wl;
    return env::summarize_traces(service.run(q).traces);
  };

  auto print_comparison = [&](const env::SliceConfig& config, const std::string& title) {
    const auto bs = breakdown(sim, config);
    const auto bc = breakdown(calibrated, config);
    const auto br = breakdown(real, config);
    common::Table t({"segment", "simulator (ms)", "calibrated (ms)", "real (ms)"});
    auto row = [&](const std::string& name, double a, double b, double c) {
      t.add_row({name, common::fmt(a, 1), common::fmt(b, 1), common::fmt(c, 1)});
    };
    row("UE loading", bs.loading, bc.loading, br.loading);
    row("uplink radio (incl. SR)", bs.uplink, bc.uplink, br.uplink);
    row("transport + core (UL)", bs.transport_ul, bc.transport_ul, br.transport_ul);
    row("edge queueing", bs.queueing, bc.queueing, br.queueing);
    row("edge compute", bs.compute, bc.compute, br.compute);
    row("downlink path", bs.downlink, bc.downlink, br.downlink);
    row("TOTAL", bs.total, bc.total, br.total);
    std::cout << title << " (" << br.frames << " frames traced on the real network):\n";
    t.print(std::cout);
    std::cout << "\n";
  };

  std::cout << "Latency decomposition, simulator vs calibrated simulator vs real\n\n";
  print_comparison(env::SliceConfig{}, "Full resources");

  env::SliceConfig tight;
  tight.bandwidth_ul = 9;
  tight.bandwidth_dl = 3;
  tight.backhaul_mbps = 6.2;
  tight.cpu_ratio = 0.8;
  print_comparison(tight, "Tight configuration (the paper's offline optimum)");

  std::cout << "Reading: calibration closes the loading/transport/compute means;\n"
               "the residual real-vs-calibrated gap (fading, stall tails, CFS\n"
               "throttling) is exactly what Stage 3's online GP learns.\n";
  return 0;
}
