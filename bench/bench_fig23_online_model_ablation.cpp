/// Fig. 23 — Online approximation-function ablation: Ours (GP residual) vs
/// BNN residual, BNN-Cont'd, and no offline acceleration. Paper: BNN raises
/// usage/QoE regret by 107.6%/96.5%; BNN-Cont'd's QoE regret soars; no
/// offline acceleration raises usage regret by 63.5%.

#include <memory>

#include "env/env_service.hpp"
#include "atlas/oracle.hpp"
#include "bench_util.hpp"

int main() {
  using namespace atlas;
  const auto opts = common::bench_options();
  bench::banner("Figure 23: online models (GP vs BNN vs BNN-Cont'd vs no offline acc.)",
                "paper Fig. 23 — GP residual + offline acceleration wins");

  env::EnvService service;
  const auto real = service.add_real_network();
  const auto augmented = service.add_simulator(env::oracle_calibration(), "augmented");

  const auto online_wl = bench::workload(opts, 20.0);
  const auto oracle = core::find_optimal_config(service, real, atlas::app::Sla{}, online_wl,
                                                opts.iters(100, 40), opts.seed + 23);

  core::OfflineTrainer trainer(service, augmented, bench::stage2_options(opts));
  const auto trained = trainer.train();

  common::Table t({"online model", "avg usage regret (%)", "avg QoE regret"});
  auto run_variant = [&](const std::string& name, core::OnlineModel model,
                         bool offline_accel) {
    // BNN-Cont'd mutates the offline policy's network: give each variant its
    // own copy of the trained policy.
    core::OfflinePolicy policy = trained.policy;
    policy.qoe_model = std::make_shared<nn::Bnn>(*trained.policy.qoe_model);
    auto o = bench::stage3_options(opts);
    o.model = model;
    o.offline_acceleration = offline_accel;
    o.workload = online_wl;
    core::OnlineLearner learner(&policy, service, augmented, real, o);
    const auto regret = core::compute_regret(learner.learn().history, oracle);
    t.add_row({name, common::fmt(regret.avg_usage_regret * 100.0, 2),
               common::fmt(regret.avg_qoe_regret, 3)});
  };
  run_variant("Ours (GP residual)", core::OnlineModel::kGpResidual, true);
  run_variant("BNN residual", core::OnlineModel::kBnnResidual, true);
  run_variant("BNN-Cont'd", core::OnlineModel::kBnnContinued, true);
  run_variant("No Offline Acc.", core::OnlineModel::kGpResidual, false);
  bench::emit(t, opts);
  return 0;
}
