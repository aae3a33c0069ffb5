// Golden-stage determinism tests: pin the exact bit-level RESULTS of the
// three Atlas stages and the baselines. The seed-planning subsystem
// (src/env/seed_plan.hpp) rewired every stage's episode seeding through a
// SeedPlan; these hashes were captured from the pre-SeedPlan ad-hoc
// counters, so they prove the plan's seed sequences are bit-identical to the
// historical behavior.
//
// To (re)capture after an *intentional* behavior change, run with
// ATLAS_GOLDEN_PRINT=1 and paste the emitted table over the expected hashes.
//
// Like golden_episode_test, the pinned hashes are toolchain-anchored;
// ATLAS_GOLDEN_TOOLCHAIN_LENIENT=1 swaps the pinned-hash assertion for a
// cross-run determinism assertion (the same stage run twice from a fresh
// service must hash identically).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>

#include "atlas/calibrator.hpp"
#include "atlas/offline_trainer.hpp"
#include "atlas/online_learner.hpp"
#include "baselines/dlda.hpp"
#include "baselines/gp_baseline.hpp"
#include "baselines/virtual_edge.hpp"
#include "env/env_service.hpp"

namespace ae = atlas::env;
namespace ac = atlas::core;
namespace ab = atlas::baselines;

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    add_u64(bits);
  }
  void add_vec(const atlas::math::Vec& v) {
    add_u64(v.size());
    for (double x : v) add_double(x);
  }
};

ae::Workload short_workload() {
  ae::Workload wl;
  wl.duration_ms = 2500.0;
  wl.seed = 1;
  return wl;
}

ac::CalibrationOptions stage1_options() {
  ac::CalibrationOptions o;
  o.iterations = 5;
  o.init_iterations = 2;
  o.parallel = 3;
  o.candidates = 120;
  o.real_episodes = 1;
  o.workload = short_workload();
  o.bnn.sizes = {7, 12, 12, 1};
  o.train_epochs = 2;
  return o;
}

ac::OfflineOptions stage2_options() {
  ac::OfflineOptions o;
  o.iterations = 6;
  o.init_iterations = 3;
  o.parallel = 3;
  o.candidates = 120;
  o.workload = short_workload();
  o.bnn.sizes = {8, 12, 12, 1};
  o.train_epochs = 2;
  return o;
}

ac::OnlineOptions stage3_options() {
  ac::OnlineOptions o;
  o.iterations = 4;
  o.inner_updates = 2;
  o.candidates = 120;
  o.workload = short_workload();
  return o;
}

std::uint64_t hash_stage1_with(const ac::CalibrationOptions& options) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ac::SimCalibrator calibrator(service, real, options);
  const auto result = calibrator.calibrate();

  Fnv f;
  f.add_double(result.original_kl);
  f.add_double(result.best_kl);
  f.add_double(result.best_distance);
  f.add_double(result.best_weighted);
  f.add_vec(result.best_params.to_vec());
  f.add_u64(result.history.size());
  for (const auto& step : result.history) {
    f.add_vec(step.params.to_vec());
    f.add_double(step.kl);
    f.add_double(step.distance);
    f.add_double(step.weighted);
  }
  f.add_vec(result.avg_weighted_per_iter);
  return f.h;
}

std::uint64_t hash_stage1() { return hash_stage1_with(stage1_options()); }

std::uint64_t hash_stage2_with(const ac::OfflineOptions& options) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  ac::OfflineTrainer trainer(service, sim, options);
  const auto result = trainer.train();

  Fnv f;
  f.add_vec(result.policy.best_config.to_vec());
  f.add_double(result.policy.best_usage);
  f.add_double(result.policy.best_qoe);
  f.add_double(result.policy.final_lambda);
  f.add_u64(result.history.size());
  for (const auto& step : result.history) {
    f.add_vec(step.config.to_vec());
    f.add_double(step.usage);
    f.add_double(step.qoe);
    f.add_double(step.lambda);
  }
  f.add_vec(result.trace.avg_usage);
  f.add_vec(result.trace.avg_qoe);
  f.add_vec(result.trace.lambda);
  return f.h;
}

std::uint64_t hash_stage2() { return hash_stage2_with(stage2_options()); }

std::uint64_t hash_stage3_with(const ac::OnlineOptions& online, bool offline_policy) {
  // A micro stage-2 run supplies the offline policy (kGpResidual needs one),
  // then the online learner runs with offline acceleration so the real, the
  // residual-sim, and the inner-update seed streams are all exercised.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();
  std::optional<ac::OfflineResult> offline_result;
  if (offline_policy) {
    ac::OfflineOptions offline = stage2_options();
    offline.iterations = 4;
    ac::OfflineTrainer trainer(service, sim, offline);
    offline_result.emplace(trainer.train());
  }

  ac::OnlineLearner learner(offline_result ? &offline_result->policy : nullptr, service, sim,
                            real, online);
  const auto result = learner.learn();

  Fnv f;
  f.add_double(result.final_lambda);
  f.add_u64(result.history.size());
  for (const auto& step : result.history) {
    f.add_vec(step.config.to_vec());
    f.add_double(step.usage);
    f.add_double(step.qoe_real);
    f.add_double(step.qoe_sim);
    f.add_double(step.lambda);
    f.add_double(step.beta);
  }
  return f.h;
}

std::uint64_t hash_stage3() { return hash_stage3_with(stage3_options(), true); }

std::uint64_t hash_trace(const ab::OnlineTrace& trace) {
  Fnv f;
  f.add_u64(trace.configs.size());
  for (const auto& c : trace.configs) f.add_vec(c.to_vec());
  f.add_vec(trace.usage);
  f.add_vec(trace.qoe);
  return f.h;
}

std::uint64_t hash_gp_baseline() {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ab::GpBaselineOptions o;
  o.iterations = 5;
  o.init_samples = 3;
  o.candidates = 150;
  o.workload = short_workload();
  ab::GpBaseline baseline(service, real, o);
  return hash_trace(baseline.learn());
}

std::uint64_t hash_virtual_edge() {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ab::VirtualEdgeOptions o;
  o.iterations = 5;
  o.workload = short_workload();
  ab::VirtualEdge baseline(service, real, o);
  return hash_trace(baseline.learn());
}

std::uint64_t hash_dlda() {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();
  ab::DldaOptions o;
  o.grid_per_dim = 2;
  o.hidden = {16, 16};
  o.teacher_epochs = 30;
  o.select_samples = 300;
  o.online_iterations = 3;
  o.workload = short_workload();
  ab::Dlda dlda(service, sim, o);
  (void)dlda.train_offline();
  Fnv f;
  f.add_u64(hash_trace(dlda.learn_online(real)));
  atlas::math::Rng rng(3);
  f.add_vec(dlda.select_offline(rng).to_vec());
  return f.h;
}

struct StageCase {
  const char* name;
  std::uint64_t (*run)();
  std::uint64_t expected;
};

// Captured from the pre-SeedPlan stages (commit de8df1f) on this container;
// regenerate with ATLAS_GOLDEN_PRINT=1.
const StageCase kGolden[] = {
    {"stage1_calibration", &hash_stage1, 0xc60b74d074a0bc4cULL},
    {"stage2_offline", &hash_stage2, 0x1488495bbbca603fULL},
    {"stage3_online", &hash_stage3, 0x58f683cdc46d9a7cULL},
    {"baseline_gp", &hash_gp_baseline, 0xb18f17099f7d3329ULL},
    {"baseline_virtual_edge", &hash_virtual_edge, 0x6c8b0c645db9a0e0ULL},
    {"baseline_dlda", &hash_dlda, 0xa9dcd426e33fd7a8ULL},
};

using Acq = atlas::bo::AcquisitionKind;

ac::OnlineOptions stage3_acquisition(Acq kind) {
  ac::OnlineOptions o = stage3_options();
  o.acquisition = kind;
  return o;
}

ac::OnlineOptions stage3_model(ac::OnlineModel model) {
  ac::OnlineOptions o = stage3_options();
  o.model = model;
  return o;
}

// 275-candidate inner pools: two scan tiles each, so the next pool's scoring
// crosses a tile boundary while an inner update's episode runs. With one
// inner update there is no next pool to score. Two iterations carry lambda and the online
// model across an iteration boundary; more only slow kBnnResidual, whose
// posterior draws 8 networks a candidate.
ac::OnlineOptions stage3_wide_pools(ac::OnlineModel model, std::size_t inner_updates) {
  ac::OnlineOptions o = stage3_model(model);
  o.iterations = 2;
  o.candidates = 1100;
  o.inner_updates = inner_updates;
  return o;
}

// The shipped inner-update count (the OnlineOptions default) over
// 100-candidate inner pools.
ac::OnlineOptions stage3_shipped_updates(ac::OnlineModel model) {
  ac::OnlineOptions o = stage3_model(model);
  o.iterations = 2;
  o.candidates = 400;
  o.inner_updates = 20;
  return o;
}

// The shipped candidate count and inner-update count (the OnlineOptions
// defaults): 500-candidate inner pools, two scan tiles each, and an
// eight-tile selection scan, over enough iterations that the candidate
// stream runs ahead across several iteration boundaries.
ac::OnlineOptions stage3_shipped_shape(ac::OnlineModel model) {
  ac::OnlineOptions o = stage3_model(model);
  o.iterations = 6;
  o.candidates = 2000;
  o.inner_updates = 20;
  return o;
}

ac::OfflineOptions stage2_surrogate(ac::OfflineSurrogate surrogate) {
  ac::OfflineOptions o = stage2_options();
  o.surrogate = surrogate;
  // The GP scans are sequential; over the first three the EI, PI and UCB
  // choices coincide, so run long enough for the three to diverge.
  o.iterations = 10;
  return o;
}

// The scan variants the default cases above never reach: other surrogates,
// acquisitions, online models and candidate samplers. Each scores its
// candidates through a different branch, so a reordered RNG draw or a
// changed score in any of them shows up here. Captured before the batched
// surrogate scoring landed; regenerate with ATLAS_GOLDEN_PRINT=1.
const StageCase kGoldenVariants[] = {
    {"stage1_gp_ei",
     [] {
       ac::CalibrationOptions o = stage1_options();
       o.surrogate = ac::CalibratorSurrogate::kGpEi;
       return hash_stage1_with(o);
     },
     0x3765b5069cb089fdULL},
    {"stage1_halton",
     [] {
       ac::CalibrationOptions o = stage1_options();
       o.sampler = ac::CandidateSampler::kHalton;
       return hash_stage1_with(o);
     },
     0xfcdb4e1aa5efcf99ULL},
    {"stage2_gp_ei",
     [] { return hash_stage2_with(stage2_surrogate(ac::OfflineSurrogate::kGpEi)); },
     0x132c4a1f09279bf3ULL},
    {"stage2_gp_pi",
     [] { return hash_stage2_with(stage2_surrogate(ac::OfflineSurrogate::kGpPi)); },
     0xb2a17e9f6d6f01a3ULL},
    {"stage2_gp_ucb",
     [] { return hash_stage2_with(stage2_surrogate(ac::OfflineSurrogate::kGpUcb)); },
     0x85bf02ef0e77f411ULL},
    {"stage3_gp_whole_no_policy",
     [] { return hash_stage3_with(stage3_model(ac::OnlineModel::kGpWhole), false); },
     0x4bed53cab3dee523ULL},
    {"stage3_bnn_residual",
     [] { return hash_stage3_with(stage3_model(ac::OnlineModel::kBnnResidual), true); },
     0xe7506078b5269997ULL},
    {"stage3_bnn_continued",
     [] { return hash_stage3_with(stage3_model(ac::OnlineModel::kBnnContinued), true); },
     0xd8f81889706d5d0aULL},
    {"stage3_no_offline_acc",
     [] {
       ac::OnlineOptions o = stage3_options();
       o.offline_acceleration = false;
       return hash_stage3_with(o, true);
     },
     0xe5e36827318e429cULL},
    {"stage3_acq_ei",
     [] { return hash_stage3_with(stage3_acquisition(Acq::kEi), true); },
     0x2cced128e6c71bd5ULL},
    {"stage3_acq_pi",
     [] { return hash_stage3_with(stage3_acquisition(Acq::kPi), true); },
     0x4e1e24e86f86d9dfULL},
    {"stage3_acq_ucb",
     [] { return hash_stage3_with(stage3_acquisition(Acq::kUcb), true); },
     0xf9435b36f8270e71ULL},
    {"stage3_acq_gp_ucb",
     [] { return hash_stage3_with(stage3_acquisition(Acq::kGpUcb), true); },
     0x7f6bcb487dd63073ULL},
    // Captured before inner-update episodes overlapped scoring the next pool.
    {"stage3_wide_gp_residual",
     [] { return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kGpResidual, 3), true); },
     0x52b607c12aebcb00ULL},
    {"stage3_wide_bnn_residual",
     [] { return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kBnnResidual, 3), true); },
     0xc71513c5f02df333ULL},
    {"stage3_wide_bnn_continued",
     [] {
       return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kBnnContinued, 3), true);
     },
     0x0a80951d3c2d856bULL},
    {"stage3_wide_gp_whole_no_policy",
     [] { return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kGpWhole, 3), false); },
     0xaa0300b9ec17f9ceULL},
    {"stage3_wide_one_update_gp_residual",
     [] { return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kGpResidual, 1), true); },
     0xf24f283a42795dfbULL},
    {"stage3_wide_one_update_bnn_residual",
     [] {
       return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kBnnResidual, 1), true);
     },
     0xc60fafa1b7e2cef2ULL},
    {"stage3_wide_one_update_bnn_continued",
     [] {
       return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kBnnContinued, 1), true);
     },
     0x6b91c0c29c95c421ULL},
    {"stage3_wide_one_update_gp_whole",
     [] { return hash_stage3_with(stage3_wide_pools(ac::OnlineModel::kGpWhole, 1), false); },
     0xb528dcea03ffdc5bULL},
    // The shipped 20 inner updates, so inner pools are scored and their
    // episodes launched many updates ahead of the lambda that commits them.
    // Captured before inner-update episodes launched ahead of their lambda.
    {"stage3_shipped_updates_gp_residual",
     [] { return hash_stage3_with(stage3_shipped_updates(ac::OnlineModel::kGpResidual), true); },
     0x169200911bb1ac41ULL},
    {"stage3_shipped_updates_bnn_continued",
     [] {
       return hash_stage3_with(stage3_shipped_updates(ac::OnlineModel::kBnnContinued), true);
     },
     0x22350c5cb2df09e3ULL},
    // Captured before the candidate stream ran ahead into episode waits. The
    // GP models fill it up to one iteration ahead; kUcb without offline
    // acceleration streams only beta and the selection scan.
    {"stage3_shipped_shape_gp_residual",
     [] { return hash_stage3_with(stage3_shipped_shape(ac::OnlineModel::kGpResidual), true); },
     0x20828d473e9cf514ULL},
    {"stage3_shipped_shape_gp_whole_no_policy",
     [] { return hash_stage3_with(stage3_shipped_shape(ac::OnlineModel::kGpWhole), false); },
     0xfdf2573a020f4345ULL},
    {"stage3_acq_ucb_no_offline_acc",
     [] {
       ac::OnlineOptions o = stage3_acquisition(Acq::kUcb);
       o.offline_acceleration = false;
       return hash_stage3_with(o, true);
     },
     0x2d402e1375b7a90fULL},
};

bool print_mode() { return std::getenv("ATLAS_GOLDEN_PRINT") != nullptr; }
bool lenient_mode() { return std::getenv("ATLAS_GOLDEN_TOOLCHAIN_LENIENT") != nullptr; }

void expect_golden(std::span<const StageCase> cases) {
  for (const auto& c : cases) {
    const std::uint64_t h = c.run();
    if (print_mode()) {
      std::printf("stage %-26s 0x%016llx\n", c.name, static_cast<unsigned long long>(h));
      continue;
    }
    if (lenient_mode()) {
      EXPECT_EQ(h, c.run()) << c.name << " (cross-run determinism)";
      continue;
    }
    EXPECT_EQ(h, c.expected) << c.name;
  }
}

}  // namespace

TEST(GoldenStage, FreshPolicyBitIdenticalToPreSeedPlanStages) { expect_golden(kGolden); }

TEST(GoldenStage, ScanVariantsBitIdentical) { expect_golden(kGoldenVariants); }
