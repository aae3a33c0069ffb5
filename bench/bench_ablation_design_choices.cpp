/// Ablations of choices this reproduction makes where the paper names none
/// (not a paper figure):
///  (a) KL estimator: smoothed histogram vs k-NN — do they rank calibrations
///      the same way?
///  (b) Candidate sampler: i.i.d. uniform vs scrambled Halton at equal count.
///  (c) BNN prior: analytic-KL Gaussian vs Blundell's scale mixture (MC).

#include "env/env_service.hpp"
#include "atlas/calibrator.hpp"
#include "bench_util.hpp"
#include "math/kl.hpp"

int main() {
  using namespace atlas;
  const auto opts = common::bench_options();
  bench::banner("Design-choice ablations (repo-specific, not a paper figure)",
                "KL estimator agreement; uniform vs Halton candidates; BNN priors");

  env::EnvService service;
  const auto real = service.add_real_network();

  // --- (a) KL estimator agreement -------------------------------------------
  {
    const auto original = service.add_simulator(env::SimParams::defaults(), "original");
    const auto calibrated = service.add_simulator(env::oracle_calibration(), "calibrated");
    auto wl = bench::workload(opts, 30.0);
    const auto lat_real = bench::run_episode(service, real, env::SliceConfig{}, wl).latencies_ms;
    wl.seed = opts.seed + 61;
    const auto lat_orig =
        bench::run_episode(service, original, env::SliceConfig{}, wl).latencies_ms;
    const auto lat_cal =
        bench::run_episode(service, calibrated, env::SliceConfig{}, wl).latencies_ms;
    common::Table t({"estimator", "KL(real || original)", "KL(real || calibrated)",
                     "same ordering"});
    const double h_orig = math::kl_divergence(lat_real, lat_orig);
    const double h_cal = math::kl_divergence(lat_real, lat_cal);
    const double k_orig = math::kl_knn_1d(lat_real, lat_orig);
    const double k_cal = math::kl_knn_1d(lat_real, lat_cal);
    t.add_row({"smoothed histogram", common::fmt(h_orig, 3), common::fmt(h_cal, 3), "-"});
    t.add_row({"k-NN (k=5)", common::fmt(k_orig, 3), common::fmt(k_cal, 3),
               (h_orig > h_cal) == (k_orig > k_cal) ? "yes" : "NO"});
    std::cout << "(a) KL estimator cross-check:\n";
    bench::emit(t, opts);
  }

  // --- (b) candidate sampler -------------------------------------------------
  {
    common::Table t({"sampler", "best weighted discrepancy", "best KL"});
    for (auto sampler : {core::CandidateSampler::kUniform, core::CandidateSampler::kHalton}) {
      auto o = bench::stage1_options(opts);
      o.iterations = opts.iters(50, 12);
      o.sampler = sampler;
      o.seed = opts.seed + (sampler == core::CandidateSampler::kHalton ? 2 : 1);
      core::SimCalibrator calibrator(service, real, o);
      const auto result = calibrator.calibrate();
      t.add_row({sampler == core::CandidateSampler::kHalton ? "scrambled Halton" : "uniform",
                 common::fmt(result.best_weighted, 3), common::fmt(result.best_kl, 3)});
    }
    std::cout << "(b) Thompson-sampling candidate stream:\n";
    bench::emit(t, opts);
  }

  // --- (c) BNN prior -----------------------------------------------------------
  {
    common::Table t({"prior", "best weighted discrepancy", "final-iteration avg"});
    for (auto prior : {nn::BnnPrior::kGaussianAnalytic, nn::BnnPrior::kScaleMixtureMc}) {
      auto o = bench::stage1_options(opts);
      o.iterations = opts.iters(50, 12);
      o.bnn.sizes = {7, 48, 48, 1};
      o.bnn.noise_sigma = 0.1;
      o.bnn.prior = prior;
      o.seed = opts.seed + 5;
      core::SimCalibrator calibrator(service, real, o);
      const auto result = calibrator.calibrate();
      t.add_row({prior == nn::BnnPrior::kGaussianAnalytic ? "Gaussian (analytic KL)"
                                                          : "scale mixture (MC)",
                 common::fmt(result.best_weighted, 3),
                 common::fmt(result.avg_weighted_per_iter.back(), 3)});
    }
    std::cout << "(c) Bayes-by-Backprop complexity-cost formulation:\n";
    bench::emit(t, opts);
  }
  return 0;
}
