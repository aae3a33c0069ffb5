/// Fig. 19 — Average resource usage under different latency thresholds Y:
/// ours stays below DLDA everywhere; the gap shrinks as Y loosens (the
/// 6 UL / 3 DL PRB connectivity floor already satisfies loose SLAs).

#include <iterator>

#include "env/env_service.hpp"
#include "baselines/dlda.hpp"
#include "bench_util.hpp"

int main() {
  using namespace atlas;
  const auto opts = common::bench_options();
  bench::banner("Figure 19: avg usage vs latency threshold Y",
                "paper Fig. 19 — ours < DLDA; gap shrinks as Y grows");

  env::EnvService service;
  const auto augmented = service.add_simulator(env::oracle_calibration(), "augmented");
  const auto wl = bench::workload(opts, 15.0);

  baselines::DldaOptions dlda_opts;
  dlda_opts.grid_per_dim = 4;
  dlda_opts.workload = wl;
  dlda_opts.seed = opts.seed + 9;

  // Per the paper, DLDA's dataset is rebuilt per threshold. Its grid
  // episodes depend on the seed and workload only, so they run once and are
  // labelled at each Y.
  const double thresholds[] = {300.0, 400.0, 500.0};
  const baselines::DldaGrid grid =
      baselines::Dlda(service, augmented, dlda_opts).collect_grid(thresholds);

  common::Table t({"threshold Y (ms)", "ours usage", "ours QoE", "DLDA usage", "DLDA QoE"});
  for (std::size_t i = 0; i < std::size(thresholds); ++i) {
    const double y = thresholds[i];
    auto o = bench::stage2_options(opts);
    o.iterations = opts.iters(90, 20);
    o.sla.latency_threshold_ms = y;
    core::OfflineTrainer trainer(service, augmented, o);
    const auto result = trainer.train();

    // Train a teacher on this Y's QoE labels, then select.
    baselines::DldaOptions per_y = dlda_opts;
    per_y.sla.latency_threshold_ms = y;
    baselines::Dlda dlda_y(service, augmented, per_y);
    dlda_y.train_offline(grid.configs, grid.qoe[i]);
    math::Rng rng(opts.seed + static_cast<std::uint64_t>(y));
    const auto dlda_config = dlda_y.select_offline(rng);

    auto validate = [&](const env::SliceConfig& c) {
      auto w = wl;
      w.seed = opts.seed + 700 + static_cast<std::uint64_t>(y);
      return bench::run_episode(service, augmented, c, w).qoe(y);
    };
    t.add_row({common::fmt(y, 0), common::fmt_pct(result.policy.best_usage),
               common::fmt(validate(result.policy.best_config)),
               common::fmt_pct(dlda_config.resource_usage()),
               common::fmt(validate(dlda_config))});
  }
  bench::emit(t, opts);
  return 0;
}
