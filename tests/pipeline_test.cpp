#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "env/env_service.hpp"
#include "atlas/pipeline.hpp"

namespace ac = atlas::core;
namespace ae = atlas::env;

namespace {

ac::PipelineOptions tiny_pipeline() {
  ac::PipelineOptions po;
  po.stage1.iterations = 8;
  po.stage1.init_iterations = 3;
  po.stage1.parallel = 3;
  po.stage1.candidates = 150;
  po.stage1.real_episodes = 1;
  po.stage1.workload.duration_ms = 4000.0;
  po.stage1.bnn.sizes = {7, 16, 16, 1};
  po.stage1.train_epochs = 2;
  po.stage2.iterations = 10;
  po.stage2.init_iterations = 4;
  po.stage2.parallel = 3;
  po.stage2.candidates = 200;
  po.stage2.workload.duration_ms = 4000.0;
  po.stage2.bnn.sizes = {8, 16, 16, 1};
  po.stage2.train_epochs = 2;
  po.stage3.iterations = 5;
  po.stage3.inner_updates = 2;
  po.stage3.candidates = 150;
  po.stage3.workload.duration_ms = 4000.0;
  return po;
}

/// Offline backend whose stats report 5 reconnects, like a remote backend
/// that reconnected before the pipeline started.
class ReconnectedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override { return {}; }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  void fill_stats(ae::BackendStats& stats) const override { stats.rpc_reconnects = 5; }

 private:
  std::string name_ = "reconnected";
};

}  // namespace

TEST(Pipeline, FullRunProducesAllTraces) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ac::AtlasPipeline pipeline(service, real, tiny_pipeline());
  const auto result = pipeline.run();
  EXPECT_FALSE(result.calibration.history.empty());
  EXPECT_FALSE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
  // The calibrated simulator must not be worse than the original.
  EXPECT_LE(result.calibration.best_kl, result.calibration.original_kl);
  // EnvService accounting is observable from the result: the only metered
  // interactions are D_r collection (1 episode) plus stage 3's loop.
  EXPECT_EQ(result.env_stats.online_queries, 1u + result.online.history.size());
  EXPECT_GT(result.env_stats.offline_queries, 0u);
}

TEST(Pipeline, RepeatedRunsReportPerRunStats) {
  // Pipelines share long-lived services; env_stats must cover one run only.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;
  po.run_stage2 = false;  // keep the re-run cheap: stage 3 only (kGpWhole)
  ac::AtlasPipeline pipeline(service, real, po);
  const auto first = pipeline.run();
  const auto second = pipeline.run();
  EXPECT_EQ(first.env_stats.online_queries, first.online.history.size());
  EXPECT_EQ(second.env_stats.online_queries, second.online.history.size());
}

TEST(Pipeline, RunStatsExcludeEarlierReconnects) {
  // The reconnects happened before the run, so this run's stats show none.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  const auto remote = service.register_backend(std::make_shared<ReconnectedBackend>());
  auto po = tiny_pipeline();
  po.run_stage1 = false;
  po.run_stage2 = false;
  po.run_stage3 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  ASSERT_GT(result.env_stats.backends.size(), remote);
  EXPECT_EQ(result.env_stats.backends[remote].rpc_reconnects, 0u);
  // The printed report agrees with its rows: with no reconnect or hedge in
  // the run, it has no overload row.
  std::ostringstream report;
  result.env_stats.summary().print(report);
  EXPECT_EQ(report.str().find("overload"), std::string::npos) << report.str();
}

TEST(Pipeline, RunStatsExcludeEarlierFarmEvents) {
  // The hedges and the re-dispatch happened before the phase began, so the
  // phase's delta shows none of them; the gauges keep the end snapshot's
  // values.
  ae::EnvServiceStats start;
  start.farm.active = true;
  start.farm.workers = 2;
  start.farm.workers_serving = 2;
  start.farm.workers_joined = 2;
  start.farm.hedges = 3;
  start.farm.hedge_wins = 2;
  start.farm.episodes_redispatched = 4;
  ae::EnvServiceStats end = start;
  end.farm.workers_serving = 1;
  end.farm.workers_suspect = 1;
  end.farm.heartbeats_missed = 1;

  const ae::EnvServiceStats delta = end.since(start);
  EXPECT_EQ(delta.farm.hedges, 0u);
  EXPECT_EQ(delta.farm.hedge_wins, 0u);
  EXPECT_EQ(delta.farm.episodes_redispatched, 0u);
  EXPECT_EQ(delta.farm.workers_joined, 0u);
  EXPECT_EQ(delta.farm.heartbeats_missed, 1u);
  EXPECT_EQ(delta.farm.workers, 2u);
  EXPECT_EQ(delta.farm.workers_serving, 1u);
  EXPECT_EQ(delta.farm.workers_suspect, 1u);
  std::ostringstream report;
  delta.summary().print(report);
  EXPECT_EQ(report.str().find("overload"), std::string::npos) << report.str();
  // The end snapshot still holds the hedges, so its report renders the
  // overload row too (each row must match the header's width).
  std::ostringstream full;
  end.summary().print(full);
  EXPECT_NE(full.str().find("overload"), std::string::npos) << full.str();
}

TEST(Pipeline, ProgressCallbackSeesEveryStage) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;  // skipped stages emit a single skipped event
  ac::AtlasPipeline pipeline(service, real, po);
  std::vector<ac::PipelineProgress> events;
  pipeline.run([&](const ac::PipelineProgress& p) { events.push_back(p); });
  // stage1 skipped (1 event) + stage2 start/finish + stage3 start/finish.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].stage, ac::PipelineStage::kCalibration);
  EXPECT_TRUE(events[0].skipped);
  EXPECT_EQ(events[1].stage, ac::PipelineStage::kOfflineTraining);
  EXPECT_FALSE(events[1].finished);
  EXPECT_TRUE(events[2].finished);
  EXPECT_EQ(events[3].stage, ac::PipelineStage::kOnlineLearning);
  // Online exposure only accumulates once stage 3 runs.
  EXPECT_EQ(events[3].env_stats.online_queries, 0u);
  EXPECT_EQ(events[4].env_stats.online_queries, po.stage3.iterations);
}

TEST(Pipeline, NoStage1SkipsCalibration) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  EXPECT_TRUE(result.calibration.history.empty());
  EXPECT_FALSE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
}

TEST(Pipeline, NoStage2UsesGpWholeOnline) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage2 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  EXPECT_TRUE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
}

TEST(Pipeline, NoStage3RepeatsOfflineOptimum) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage3 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  ASSERT_EQ(result.online.history.size(), po.stage3.iterations);
  const auto expected = result.offline.policy.best_config.to_vec();
  for (const auto& step : result.online.history) {
    const auto got = step.config.to_vec();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i], expected[i]);
    }
  }
}
