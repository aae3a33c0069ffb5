#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "env/env_service.hpp"
#include "atlas/offline_trainer.hpp"

namespace ac = atlas::core;
namespace ae = atlas::env;

namespace {

ac::OfflineOptions fast_options() {
  ac::OfflineOptions opts;
  opts.iterations = 30;
  opts.init_iterations = 10;
  opts.parallel = 4;
  opts.candidates = 400;
  opts.workload.duration_ms = 6000.0;
  opts.bnn.sizes = {8, 32, 32, 1};
  opts.bnn.noise_sigma = 0.07;
  opts.train_epochs = 4;
  opts.seed = 7;
  return opts;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Whether the trainer's constructor rejects `fast_options()` as changed by
/// `change` with std::invalid_argument.
bool rejects(const std::function<void(ac::OfflineOptions&)>& change) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  change(opts);
  try {
    ac::OfflineTrainer trainer(service, sim, opts);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

TEST(Stage2, FindsCheaperFeasibleConfiguration) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator(ae::oracle_calibration());
  ac::OfflineTrainer trainer(service, sim, fast_options());
  const auto result = trainer.train();
  // Must find something meeting the QoE requirement cheaper than full usage.
  EXPECT_GE(result.policy.best_qoe, 0.9);
  EXPECT_LT(result.policy.best_usage, ae::SliceConfig{}.resource_usage());
  EXPECT_TRUE(result.policy.qoe_model != nullptr);
  EXPECT_GE(result.policy.final_lambda, 0.0);
}

TEST(Stage2, TraceShapesAndRanges) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  opts.iterations = 12;
  ac::OfflineTrainer trainer(service, sim, opts);
  const auto result = trainer.train();
  EXPECT_EQ(result.trace.avg_usage.size(), 12u);
  EXPECT_EQ(result.trace.avg_qoe.size(), 12u);
  EXPECT_EQ(result.trace.lambda.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_GE(result.trace.avg_qoe[i], 0.0);
    ASSERT_LE(result.trace.avg_qoe[i], 1.0);
    ASSERT_GE(result.trace.avg_usage[i], 0.0);
    ASSERT_LE(result.trace.avg_usage[i], 1.0);
    ASSERT_GE(result.trace.lambda[i], 0.0);  // dual feasibility
  }
  EXPECT_EQ(result.history.size(), 12u * 4u);
}

TEST(Stage2, PolicyPredictsQoeInUnitInterval) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  opts.iterations = 15;
  ac::OfflineTrainer trainer(service, sim, opts);
  const auto result = trainer.train();
  atlas::math::Rng rng(3);
  const auto space = ae::SliceConfig::space();
  for (int i = 0; i < 50; ++i) {
    const double q = result.policy.predict_qoe(ae::SliceConfig::from_vec(space.sample(rng)));
    ASSERT_GE(q, 0.0);
    ASSERT_LE(q, 1.0);
  }
}

TEST(Stage2, PolicyModelLearnsResourceQoeTrend) {
  // After training, the BNN should rate the full configuration clearly above
  // a starved one.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator(ae::oracle_calibration());
  auto opts = fast_options();
  opts.iterations = 40;
  ac::OfflineTrainer trainer(service, sim, opts);
  const auto result = trainer.train();
  ae::SliceConfig starved;
  starved.bandwidth_ul = 6;
  starved.cpu_ratio = 0.05;
  starved.backhaul_mbps = 1.0;
  EXPECT_GT(result.policy.predict_qoe(ae::SliceConfig{}),
            result.policy.predict_qoe(starved));
}

TEST(Stage2, RejectsEmptyCandidatePool) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  opts.candidates = 0;
  EXPECT_THROW(ac::OfflineTrainer(service, sim, opts), std::invalid_argument);
}

TEST(Stage2, RejectsZeroParallelQueries) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  opts.parallel = 0;
  EXPECT_THROW(ac::OfflineTrainer(service, sim, opts), std::invalid_argument);
}

TEST(Stage2, RejectsEpsilonThatIsNotFiniteAndNonNegative) {
  for (const double epsilon : {-0.1, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OfflineOptions& o) { o.epsilon = epsilon; })) << epsilon;
  }
  EXPECT_FALSE(rejects([](ac::OfflineOptions& o) { o.epsilon = 0.0; }));
}

TEST(Stage2, RejectsNonFiniteAvailability) {
  for (const double availability : {std::nan(""), kInf, -kInf}) {
    EXPECT_TRUE(rejects([&](ac::OfflineOptions& o) { o.sla.availability = availability; }))
        << availability;
  }
  // LambdaRisesWhileInfeasible runs an SLA no QoE can meet.
  EXPECT_FALSE(rejects([](ac::OfflineOptions& o) { o.sla.availability = 1.01; }));
}

TEST(Stage2, RejectsLatencyThresholdThatIsNotFiniteAndPositive) {
  for (const double threshold : {0.0, -300.0, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OfflineOptions& o) { o.sla.latency_threshold_ms = threshold; }))
        << threshold;
  }
}

TEST(Stage2, RejectsDurationThatIsNotFiniteAndPositive) {
  for (const double duration : {0.0, -1.0, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OfflineOptions& o) { o.workload.duration_ms = duration; }))
        << duration;
  }
}

TEST(Stage2, GpSurrogateVariantsRun) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  for (auto surrogate :
       {ac::OfflineSurrogate::kGpEi, ac::OfflineSurrogate::kGpPi, ac::OfflineSurrogate::kGpUcb}) {
    auto opts = fast_options();
    opts.surrogate = surrogate;
    opts.iterations = 14;
    opts.init_iterations = 8;
    ac::OfflineTrainer trainer(service, sim, opts);
    const auto result = trainer.train();
    EXPECT_EQ(result.history.size(), 14u);  // sequential
    EXPECT_GT(result.policy.best_qoe, 0.0);
  }
}

TEST(Stage2, LambdaRisesWhileInfeasible) {
  // With an impossible SLA (QoE >= 1.01) the dual variable must keep rising.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  auto opts = fast_options();
  opts.iterations = 10;
  opts.sla.availability = 1.01;
  ac::OfflineTrainer trainer(service, sim, opts);
  const auto result = trainer.train();
  for (std::size_t i = 1; i < result.trace.lambda.size(); ++i) {
    ASSERT_GE(result.trace.lambda[i], result.trace.lambda[i - 1]);
  }
}
