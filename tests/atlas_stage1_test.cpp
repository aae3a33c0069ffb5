#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "env/env_service.hpp"
#include "atlas/calibrator.hpp"

namespace ac = atlas::core;
namespace ae = atlas::env;

namespace {

ac::CalibrationOptions fast_options() {
  ac::CalibrationOptions opts;
  opts.iterations = 24;
  opts.init_iterations = 8;
  opts.parallel = 4;
  opts.candidates = 300;
  opts.real_episodes = 1;
  opts.workload.duration_ms = 6000.0;
  opts.bnn.sizes = {7, 32, 32, 1};
  opts.bnn.noise_sigma = 0.1;
  opts.train_epochs = 4;
  opts.seed = 5;
  return opts;
}

}  // namespace

TEST(Stage1, ReducesWeightedDiscrepancy) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ac::SimCalibrator calibrator(service, real, fast_options());
  const auto result = calibrator.calibrate();
  // Even a tiny budget must beat the spec-default simulator.
  EXPECT_LT(result.best_kl, result.original_kl);
  EXPECT_GT(result.original_kl, 0.3);
  EXPECT_FALSE(result.history.empty());
  EXPECT_EQ(result.avg_weighted_per_iter.size(), 24u);
}

TEST(Stage1, RespectsParameterBall) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.ball_radius = 0.2;
  opts.iterations = 10;
  ac::SimCalibrator calibrator(service, real, opts);
  const auto result = calibrator.calibrate();
  const auto x_hat = ae::SimParams::defaults();
  for (const auto& step : result.history) {
    ASSERT_LE(step.params.distance_to(x_hat), 0.2 + 1e-9);
  }
}

TEST(Stage1, WeightedObjectiveConsistent) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.iterations = 6;
  ac::SimCalibrator calibrator(service, real, opts);
  const auto result = calibrator.calibrate();
  for (const auto& step : result.history) {
    ASSERT_NEAR(step.weighted, step.kl + opts.alpha * step.distance, 1e-9);
    ASSERT_GE(step.kl, 0.0);
    ASSERT_GE(step.distance, 0.0);
  }
  EXPECT_NEAR(result.best_weighted,
              result.best_kl + opts.alpha * result.best_distance, 1e-9);
}

TEST(Stage1, RejectsEmptyCandidatePool) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.candidates = 0;
  EXPECT_THROW(ac::SimCalibrator(service, real, opts), std::invalid_argument);
}

TEST(Stage1, RejectsZeroParallelQueries) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.parallel = 0;
  EXPECT_THROW(ac::SimCalibrator(service, real, opts), std::invalid_argument);
}

TEST(Stage1, RejectsDegenerateDurationBeforeAnyEpisode) {
  for (const double duration : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto real = service.add_real_network();
    auto opts = fast_options();
    opts.workload.duration_ms = duration;
    EXPECT_THROW(ac::SimCalibrator(service, real, opts), std::invalid_argument) << duration;
    // The construction collects D_r from the real network; a bad duration
    // must stop it before that first episode.
    EXPECT_EQ(service.stats().total_queries(), 0u) << duration;
  }
}

// A NaN radius used to exhaust every in-ball draw, fall back to NaN
// parameters and fail in the event queue after the metered real episodes.
TEST(Stage1, RejectsDegenerateBallRadiusAndAlphaBeforeAnyEpisode) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double radius : {0.0, -0.5, std::nan(""), inf}) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto real = service.add_real_network();
    auto opts = fast_options();
    opts.ball_radius = radius;
    EXPECT_THROW(ac::SimCalibrator(service, real, opts), std::invalid_argument) << radius;
    EXPECT_EQ(service.stats().total_queries(), 0u) << radius;
  }
  for (const double alpha : {std::nan(""), inf, -inf}) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto real = service.add_real_network();
    auto opts = fast_options();
    opts.alpha = alpha;
    EXPECT_THROW(ac::SimCalibrator(service, real, opts), std::invalid_argument) << alpha;
    EXPECT_EQ(service.stats().total_queries(), 0u) << alpha;
  }
}

TEST(Stage1, GpSurrogateVariantRuns) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.surrogate = ac::CalibratorSurrogate::kGpEi;
  opts.iterations = 16;
  opts.init_iterations = 8;
  ac::SimCalibrator calibrator(service, real, opts);
  const auto result = calibrator.calibrate();
  EXPECT_EQ(result.history.size(), 16u);  // sequential: one query per iteration
  EXPECT_LE(result.best_kl, result.original_kl);
}

TEST(Stage1, DiscrepancyOfIsDeterministicPerSeed) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto opts = fast_options();
  opts.iterations = 1;
  opts.init_iterations = 1;
  ac::SimCalibrator calibrator(service, real, opts);
  const double a = calibrator.discrepancy_of(ae::SimParams::defaults(), 99);
  const double b = calibrator.discrepancy_of(ae::SimParams::defaults(), 99);
  EXPECT_DOUBLE_EQ(a, b);
}
