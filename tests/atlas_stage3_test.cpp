#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/env_service.hpp"
#include "env/fault_injection.hpp"
#include "atlas/offline_trainer.hpp"
#include "atlas/online_learner.hpp"
#include "atlas/oracle.hpp"

namespace ac = atlas::core;
namespace ae = atlas::env;

namespace {

/// Shared fixture: one quick offline policy reused by the online tests.
class Stage3Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    service_ = new ae::EnvService(ae::EnvServiceOptions{.threads = 2});
    sim_ = service_->add_simulator(ae::oracle_calibration());
    real_ = service_->add_real_network();
    ac::OfflineOptions opts;
    opts.iterations = 30;
    opts.init_iterations = 10;
    opts.parallel = 4;
    opts.candidates = 400;
    opts.workload.duration_ms = 6000.0;
    opts.bnn.sizes = {8, 32, 32, 1};
    opts.train_epochs = 4;
    opts.seed = 11;
    ac::OfflineTrainer trainer(*service_, sim_, opts);
    offline_ = new ac::OfflineResult(trainer.train());
  }
  static void TearDownTestSuite() {
    delete offline_;
    delete service_;
  }

  static ac::OnlineOptions fast_online() {
    ac::OnlineOptions opts;
    opts.iterations = 10;
    opts.inner_updates = 4;
    opts.candidates = 300;
    opts.workload.duration_ms = 6000.0;
    opts.seed = 13;
    return opts;
  }

  /// Whether the learner's constructor rejects `fast_online()` as changed by
  /// `change` with std::invalid_argument.
  static bool rejects(const std::function<void(ac::OnlineOptions&)>& change) {
    auto opts = fast_online();
    change(opts);
    try {
      ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, opts);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  }

  static ae::EnvService* service_;
  static ae::BackendId sim_;
  static ae::BackendId real_;
  static ac::OfflineResult* offline_;
};

ae::EnvService* Stage3Test::service_ = nullptr;
ae::BackendId Stage3Test::sim_ = 0;
ae::BackendId Stage3Test::real_ = 0;
ac::OfflineResult* Stage3Test::offline_ = nullptr;

/// The oracle-calibrated simulator, except that its `fail_call`-th query
/// (counting from 1) throws instead of running an episode.
class FailingSimulator final : public ae::EnvBackend {
 public:
  explicit FailingSimulator(std::size_t fail_call) : fail_call_(fail_call) {}

  ae::EpisodeResult execute(const ae::EnvQuery& query) const override {
    if (calls_.fetch_add(1) + 1 == fail_call_) {
      throw std::runtime_error("injected: inner-update episode failed");
    }
    return sim_.execute(query);
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  ae::LocalBackend sim_{std::make_shared<ae::Simulator>(ae::oracle_calibration()), "sim",
                        ae::BackendKind::kOffline};
  std::size_t fail_call_;
  mutable std::atomic<std::size_t> calls_{0};
  std::string name_ = "failing-sim";
};

/// The oracle-calibrated simulator, recording how many queries the service
/// has outstanding as each inner-update episode starts. Stage 3 sends it
/// 1 + inner_updates queries an iteration, the residual episode first. It
/// holds the first inner-update episode until another query arrives, or
/// for at most `hold`, so a learner that waits on that episode before
/// launching the next one is slowed down, never hung.
class GatedSimulator final : public ae::EnvBackend {
 public:
  GatedSimulator(const ae::EnvClient& service, std::size_t inner_updates,
                 std::chrono::milliseconds hold)
      : service_(service), inner_updates_(inner_updates), hold_(hold) {}

  ae::EpisodeResult execute(const ae::EnvQuery& query) const override {
    {
      std::unique_lock lock(mu_);
      const std::size_t call = calls_++;
      arrived_.notify_all();
      if (call % (1 + inner_updates_) != 0) {
        max_inner_outstanding_ = std::max(max_inner_outstanding_, service_.outstanding_queries());
      }
      if (call == 1) {
        released_by_arrival_ = arrived_.wait_for(lock, hold_, [&] { return calls_ > 2; });
      }
    }
    return sim_.execute(query);
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

  /// The most queries outstanding when an inner-update episode started.
  std::size_t max_inner_outstanding() const {
    std::lock_guard lock(mu_);
    return max_inner_outstanding_;
  }
  /// Whether another query arrived while the first inner episode was held.
  bool released_by_arrival() const {
    std::lock_guard lock(mu_);
    return released_by_arrival_;
  }

 private:
  ae::LocalBackend sim_{std::make_shared<ae::Simulator>(ae::oracle_calibration()), "sim",
                        ae::BackendKind::kOffline};
  const ae::EnvClient& service_;
  std::size_t inner_updates_;
  std::chrono::milliseconds hold_;
  mutable std::mutex mu_;
  mutable std::condition_variable arrived_;
  mutable std::size_t calls_ = 0;
  mutable std::size_t max_inner_outstanding_ = 0;
  mutable bool released_by_arrival_ = false;
  std::string name_ = "gated-sim";
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `inner` behind a FaultInjectingBackend running `plan` (see FaultPlan), or
/// `inner` itself for an empty plan.
std::shared_ptr<const ae::EnvBackend> with_plan(std::shared_ptr<const ae::EnvBackend> inner,
                                                const char* plan) {
  if (*plan == '\0') return inner;
  return std::make_shared<ae::FaultInjectingBackend>(
      std::move(inner), std::make_shared<ae::FaultInjector>(ae::FaultPlan::parse(plan, 5)));
}

/// A service whose submit() returns only once the episode has completed, so
/// every handle a caller gets is ready at once: a learner never finds an
/// episode running and fills nothing while it waits.
class PromptService final : public ae::EnvClient {
 public:
  PromptService() = default;

  using ae::EnvClient::register_backend;
  ae::BackendId register_backend(std::shared_ptr<const ae::EnvBackend> backend) override {
    return inner_.register_backend(std::move(backend));
  }
  std::size_t backend_count() const override { return inner_.backend_count(); }
  const std::string& backend_name(ae::BackendId id) const override {
    return inner_.backend_name(id);
  }
  ae::BackendKind backend_kind(ae::BackendId id) const override {
    return inner_.backend_kind(id);
  }
  using ae::EnvClient::run;
  ae::EpisodeResult run(const ae::EnvQuery& query) override { return inner_.run(query); }
  ae::QueryHandle submit(ae::EnvQuery query) override {
    ae::QueryHandle handle = inner_.submit(std::move(query));
    handle.wait();
    return handle;
  }
  std::vector<ae::EpisodeResult> run_batch(std::span<const ae::EnvQuery> queries) override {
    return inner_.run_batch(queries);
  }
  ae::BackendStats backend_stats(ae::BackendId id) const override {
    return inner_.backend_stats(id);
  }
  ae::EnvServiceStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  std::size_t outstanding_queries() const override { return inner_.outstanding_queries(); }

 private:
  ae::EnvService inner_{ae::EnvServiceOptions{.threads = 2}};
};

void expect_same_result(const ac::OnlineResult& a, const ac::OnlineResult& b) {
  EXPECT_EQ(a.final_lambda, b.final_lambda);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const ac::OnlineStep& x = a.history[i];
    const ac::OnlineStep& y = b.history[i];
    EXPECT_EQ(x.config.to_vec(), y.config.to_vec()) << "step " << i;
    EXPECT_EQ(x.usage, y.usage) << "step " << i;
    EXPECT_EQ(x.qoe_real, y.qoe_real) << "step " << i;
    EXPECT_EQ(x.qoe_sim, y.qoe_sim) << "step " << i;
    EXPECT_EQ(x.lambda, y.lambda) << "step " << i;
    EXPECT_EQ(x.beta, y.beta) << "step " << i;
  }
}

}  // namespace

TEST_F(Stage3Test, RunsAndRecordsValidSteps) {
  ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, fast_online());
  const auto result = learner.learn();
  ASSERT_EQ(result.history.size(), 10u);
  for (const auto& step : result.history) {
    ASSERT_GE(step.qoe_real, 0.0);
    ASSERT_LE(step.qoe_real, 1.0);
    ASSERT_GE(step.usage, 0.0);
    ASSERT_LE(step.usage, 1.0);
    ASSERT_GE(step.lambda, 0.0);
    ASSERT_GE(step.beta, 0.0);
    ASSERT_LE(step.beta, 10.0);  // clipped at B
  }
  EXPECT_GE(result.final_lambda, 0.0);
}

TEST_F(Stage3Test, FirstActionIsOfflineOptimum) {
  ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, fast_online());
  const auto result = learner.learn();
  const auto expected = offline_->policy.best_config.to_vec();
  const auto got = result.history.front().config.to_vec();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], expected[i]);
  }
}

TEST_F(Stage3Test, AblationsRun) {
  for (auto model : {ac::OnlineModel::kBnnResidual, ac::OnlineModel::kBnnContinued}) {
    auto opts = fast_online();
    opts.iterations = 4;
    opts.model = model;
    ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, opts);
    EXPECT_EQ(learner.learn().history.size(), 4u);
  }
  // kGpWhole with no offline policy ("no stage 2").
  auto opts = fast_online();
  opts.iterations = 4;
  opts.model = ac::OnlineModel::kGpWhole;
  ac::OnlineLearner learner(nullptr, *service_, sim_, real_, opts);
  EXPECT_EQ(learner.learn().history.size(), 4u);
}

TEST_F(Stage3Test, RequiresPolicyUnlessGpWhole) {
  EXPECT_THROW(ac::OnlineLearner(nullptr, *service_, sim_, real_, fast_online()),
               std::invalid_argument);
}

TEST_F(Stage3Test, RejectsDegenerateCandidatePools) {
  auto opts = fast_online();
  opts.candidates = 0;
  EXPECT_THROW(ac::OnlineLearner(&offline_->policy, *service_, sim_, real_, opts),
               std::invalid_argument);
  // Offline acceleration scans candidates / 4 actions per inner update.
  opts.candidates = 3;
  EXPECT_THROW(ac::OnlineLearner(&offline_->policy, *service_, sim_, real_, opts),
               std::invalid_argument);
  opts.offline_acceleration = false;
  EXPECT_NO_THROW(ac::OnlineLearner(&offline_->policy, *service_, sim_, real_, opts));
}

TEST_F(Stage3Test, AcquisitionAblationsRun) {
  for (auto acq : {atlas::bo::AcquisitionKind::kEi, atlas::bo::AcquisitionKind::kPi,
                   atlas::bo::AcquisitionKind::kGpUcb}) {
    auto opts = fast_online();
    opts.iterations = 4;
    opts.acquisition = acq;
    ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, opts);
    EXPECT_EQ(learner.learn().history.size(), 4u);
  }
}

TEST_F(Stage3Test, NoOfflineAccelerationStillLearns) {
  auto opts = fast_online();
  opts.offline_acceleration = false;
  ac::OnlineLearner learner(&offline_->policy, *service_, sim_, real_, opts);
  EXPECT_EQ(learner.learn().history.size(), opts.iterations);
}

// 1100 candidates give 275-candidate inner pools, two scan tiles each, scored
// while the previous inner update's episode runs on the service pool.
TEST_F(Stage3Test, AccountsEveryInnerUpdateQuery) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator(ae::oracle_calibration());
  const auto real = service.add_real_network();
  auto opts = fast_online();
  opts.iterations = 3;
  opts.candidates = 1100;
  ac::OnlineLearner learner(&offline_->policy, service, sim, real, opts);
  EXPECT_EQ(learner.learn().history.size(), opts.iterations);
  EXPECT_EQ(service.outstanding_queries(), 0u);
  // One residual episode plus one per inner update, each iteration.
  EXPECT_EQ(service.backend_stats(sim).queries, opts.iterations * (1 + opts.inner_updates));
  EXPECT_EQ(service.backend_stats(real).queries, opts.iterations);
}

TEST_F(Stage3Test, FailedInnerUpdateFailsTheStage) {
  // The simulator's third query is one of iteration 0's inner updates, with
  // others possibly in flight beside it.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.register_backend(std::make_shared<FailingSimulator>(3));
  const auto real = service.add_real_network();
  auto opts = fast_online();
  opts.iterations = 2;
  opts.candidates = 1100;
  ac::OnlineLearner learner(&offline_->policy, service, sim, real, opts);
  try {
    (void)learner.learn();
    FAIL() << "stage 3 learned past a failed inner update";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected: inner-update episode failed");
  }
  EXPECT_EQ(service.outstanding_queries(), 0u);  // no episode left running
}

// With a zero dual step lambda cannot move, so every pool's lambda bracket is
// one point and every greedy action is certain, on any toolchain: update 1's
// episode must launch while update 0's is still held.
TEST_F(Stage3Test, LaunchesInnerEpisodesAheadOfTheirLambda) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  auto opts = fast_online();
  opts.iterations = 2;
  opts.epsilon = 0.0;
  auto gated = std::make_shared<GatedSimulator>(service, opts.inner_updates,
                                                std::chrono::seconds(10));
  const auto sim = service.register_backend(gated);
  const auto real = service.add_real_network();
  ac::OnlineLearner learner(&offline_->policy, service, sim, real, opts);
  EXPECT_EQ(learner.learn().history.size(), opts.iterations);
  EXPECT_TRUE(gated->released_by_arrival()) << "the second inner episode waited on the first";
  EXPECT_GE(gated->max_inner_outstanding(), 2u);
  EXPECT_EQ(service.backend_stats(sim).queries, opts.iterations * (1 + opts.inner_updates));
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

// kBnnResidual's posterior at each greedy action draws from the learner's
// RNG between two pools, so it launches one inner episode at a time, even
// when, as here, every greedy action is certain.
TEST_F(Stage3Test, BnnResidualKeepsOneInnerEpisodeOutstanding) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  auto opts = fast_online();
  opts.iterations = 2;
  opts.epsilon = 0.0;
  opts.model = ac::OnlineModel::kBnnResidual;
  auto gated = std::make_shared<GatedSimulator>(service, opts.inner_updates,
                                                std::chrono::milliseconds(300));
  const auto sim = service.register_backend(gated);
  const auto real = service.add_real_network();
  ac::OnlineLearner learner(&offline_->policy, service, sim, real, opts);
  EXPECT_EQ(learner.learn().history.size(), opts.iterations);
  EXPECT_FALSE(gated->released_by_arrival());
  EXPECT_EQ(gated->max_inner_outstanding(), 1u);
  EXPECT_EQ(service.backend_stats(sim).queries, opts.iterations * (1 + opts.inner_updates));
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

// kGpResidual fills its candidate stream while episodes run, up to one
// iteration ahead; kBnnResidual fills it on demand. Neither may depend on
// when an episode returns: the same learner runs against episodes that
// have returned by the time it looks (it fills nothing while waiting), and
// against real-network episodes held 20 ms and about every third simulator
// episode held 5 ms (it fills a full iteration ahead).
TEST_F(Stage3Test, ResultsDoNotDependOnWhenEpisodesReturn) {
  for (const auto model : {ac::OnlineModel::kGpResidual, ac::OnlineModel::kBnnResidual}) {
    auto opts = fast_online();
    opts.model = model;
    if (model == ac::OnlineModel::kGpResidual) {
      opts.iterations = 3;
      opts.candidates = 1100;  // two-tile inner pools, a five-tile selection scan
    } else {
      opts.iterations = 2;  // its posterior draws 8 networks a candidate
    }
    auto run = [&](ae::EnvClient&& service, const char* real_plan, const char* sim_plan) {
      const auto sim = service.register_backend(with_plan(
          std::make_shared<ae::LocalBackend>(
              std::make_shared<ae::Simulator>(ae::oracle_calibration()), "sim",
              ae::BackendKind::kOffline),
          sim_plan));
      const auto real = service.register_backend(with_plan(
          std::make_shared<ae::LocalBackend>(std::make_shared<ae::RealNetwork>(), "real",
                                             ae::BackendKind::kOnline),
          real_plan));
      ac::OnlineLearner learner(&offline_->policy, service, sim, real, opts);
      const ac::OnlineResult result = learner.learn();
      EXPECT_EQ(service.backend_stats(sim).queries, opts.iterations * (1 + opts.inner_updates));
      EXPECT_EQ(service.outstanding_queries(), 0u);
      return result;
    };
    const ac::OnlineResult prompt = run(PromptService(), "", "");
    const ac::OnlineResult held =
        run(ae::EnvService(ae::EnvServiceOptions{.threads = 2}), "delay=1:20ms", "delay=0.33:5ms");
    SCOPED_TRACE(model == ac::OnlineModel::kGpResidual ? "kGpResidual" : "kBnnResidual");
    expect_same_result(prompt, held);
  }
}

TEST_F(Stage3Test, RejectsEpsilonThatIsNotFiniteAndNonNegative) {
  for (const double epsilon : {-0.1, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.epsilon = epsilon; })) << epsilon;
  }
  EXPECT_FALSE(rejects([](ac::OnlineOptions& o) { o.epsilon = 0.0; }));
}

TEST_F(Stage3Test, RejectsNonFiniteAvailability) {
  for (const double availability : {std::nan(""), kInf, -kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.sla.availability = availability; }))
        << availability;
  }
  EXPECT_FALSE(rejects([](ac::OnlineOptions& o) { o.sla.availability = 1.01; }));
}

TEST_F(Stage3Test, RejectsLatencyThresholdThatIsNotFiniteAndPositive) {
  for (const double threshold : {0.0, -300.0, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.sla.latency_threshold_ms = threshold; }))
        << threshold;
  }
}

TEST_F(Stage3Test, RejectsDurationThatIsNotFiniteAndPositive) {
  for (const double duration : {0.0, -1.0, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.workload.duration_ms = duration; }))
        << duration;
  }
}

// cRGP-UCB draws beta ~ Gamma(kappa(rho), rho) clipped to [0, clip_b], so a
// degenerate rho or clip_b fails at construction, not after iteration 0's
// metered real-network episode.
TEST_F(Stage3Test, RejectsDegenerateCrgpUcbParameters) {
  for (const double rho : {0.0, -0.1, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.rho = rho; })) << rho;
  }
  for (const double clip_b : {-1.0, std::nan(""), kInf}) {
    EXPECT_TRUE(rejects([&](ac::OnlineOptions& o) { o.clip_b = clip_b; })) << clip_b;
  }
  EXPECT_FALSE(rejects([](ac::OnlineOptions& o) { o.clip_b = 0.0; }));
  // Only cRGP-UCB reads them.
  EXPECT_FALSE(rejects([](ac::OnlineOptions& o) {
    o.acquisition = atlas::bo::AcquisitionKind::kGpUcb;
    o.rho = 0.0;
    o.clip_b = -1.0;
  }));
}

// Any dual steps whose QoE estimates lie in [0, 1] end inside the bracket the
// learner launches by, compared exactly; the all-1 and all-0 paths reach its
// ends bit for bit.
TEST(DualStep, BracketHoldsEveryPathBitForBit) {
  atlas::math::Rng rng(19);
  const double edges[] = {0.0, 1.0, std::nextafter(1.0, 0.0), 0x1p-60};
  for (int trial = 0; trial < 4000; ++trial) {
    const double lambda0 = trial % 7 == 0 ? 0.0 : rng.uniform(0.0, 4.0);
    const double epsilon = trial % 11 == 0 ? 0.0 : rng.uniform(0.0, 0.6);
    const double availability = trial % 13 == 0 ? 1.01 : rng.uniform(0.0, 1.0);
    const std::size_t depth = static_cast<std::size_t>(trial % 24);
    const ac::LambdaBracket b = ac::lambda_bracket(lambda0, depth, epsilon, availability);
    ASSERT_LE(b.lo, b.hi);
    double lambda = lambda0;
    double at_one = lambda0;
    double at_zero = lambda0;
    for (std::size_t d = 0; d < depth; ++d) {
      // Half the estimates sit on or next to the clamp's ends.
      const double q = rng.uniform() < 0.5 ? edges[rng.next_u64() % 4] : rng.uniform();
      lambda = ac::dual_step(lambda, q, epsilon, availability);
      at_one = ac::dual_step(at_one, 1.0, epsilon, availability);
      at_zero = ac::dual_step(at_zero, 0.0, epsilon, availability);
      ASSERT_GE(lambda, 0.0);
    }
    ASSERT_LE(b.lo, lambda) << "trial " << trial;
    ASSERT_LE(lambda, b.hi) << "trial " << trial;
    ASSERT_EQ(at_one, b.lo);
    ASSERT_EQ(at_zero, b.hi);
  }
}

TEST(Oracle, FindsFeasibleCheapConfig) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  atlas::app::Sla sla;
  ae::Workload wl;
  wl.duration_ms = 5000.0;
  const auto oracle = ac::find_optimal_config(service, real, sla, wl, 60, 3, 2);
  EXPECT_GE(oracle.qoe, sla.availability);
  EXPECT_LE(oracle.usage, ae::SliceConfig{}.resource_usage());
}

TEST(Oracle, RegretComputationMatchesDefinition) {
  ac::OracleOptimum oracle;
  oracle.usage = 0.2;
  oracle.qoe = 0.9;
  const std::vector<double> usage{0.5, 0.3, 0.2};
  const std::vector<double> qoe{0.6, 0.95, 0.9};
  const auto regret = ac::compute_regret(usage, qoe, oracle);
  // g_u = (0.3) + (0.1) + (0.0) = 0.4 cumulative.
  EXPECT_NEAR(regret.cumulative_usage.back(), 0.4, 1e-12);
  // g_p = 0.3 + 0 + 0 = 0.3.
  EXPECT_NEAR(regret.cumulative_qoe.back(), 0.3, 1e-12);
  EXPECT_NEAR(regret.avg_usage_regret, 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(regret.avg_qoe_regret, 0.1, 1e-12);
  // Cumulative sequences are monotone for the QoE regret (max(...,0) terms).
  for (std::size_t i = 1; i < regret.cumulative_qoe.size(); ++i) {
    ASSERT_GE(regret.cumulative_qoe[i], regret.cumulative_qoe[i - 1]);
  }
}
