#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "bo/acquisition.hpp"
#include "bo/argmin.hpp"
#include "bo/gp_bo.hpp"
#include "bo/scan_tile.hpp"
#include "bo/space.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"

namespace am = atlas::math;
namespace ab = atlas::bo;

namespace {

ab::BoxSpace unit_box(std::size_t d) {
  std::vector<std::string> names;
  am::Vec lo(d, 0.0);
  am::Vec hi(d, 1.0);
  for (std::size_t i = 0; i < d; ++i) names.push_back("x" + std::to_string(i));
  return ab::BoxSpace(names, lo, hi);
}

}  // namespace

TEST(BoxSpace, NormalizeDenormalizeRoundTrip) {
  ab::BoxSpace space({"a", "b"}, {0.0, -5.0}, {50.0, 5.0});
  const am::Vec x{25.0, 0.0};
  const am::Vec u = space.normalize(x);
  EXPECT_DOUBLE_EQ(u[0], 0.5);
  EXPECT_DOUBLE_EQ(u[1], 0.5);
  const am::Vec back = space.denormalize(u);
  EXPECT_DOUBLE_EQ(back[0], x[0]);
  EXPECT_DOUBLE_EQ(back[1], x[1]);
}

TEST(BoxSpace, ClampAndValidation) {
  ab::BoxSpace space({"a"}, {0.0}, {10.0});
  EXPECT_DOUBLE_EQ(space.clamp({-3.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(space.clamp({30.0})[0], 10.0);
  EXPECT_THROW(ab::BoxSpace({"a"}, {1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(space.normalize({1.0, 2.0}), std::invalid_argument);
}

TEST(BoxSpace, SamplesInsideBox) {
  ab::BoxSpace space({"a", "b"}, {2.0, -1.0}, {4.0, 1.0});
  am::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const am::Vec x = space.sample(rng);
    ASSERT_GE(x[0], 2.0);
    ASSERT_LT(x[0], 4.0);
    ASSERT_GE(x[1], -1.0);
    ASSERT_LT(x[1], 1.0);
  }
}

TEST(BoxSpace, DistanceIsNormalizedAndSymmetric) {
  ab::BoxSpace space({"a", "b"}, {0.0, 0.0}, {100.0, 1.0});
  const am::Vec x{0.0, 0.0};
  const am::Vec y{100.0, 1.0};
  // Corner-to-corner: sqrt(2)/sqrt(2) = 1 under the /sqrt(d) convention.
  EXPECT_NEAR(space.distance(x, y), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(space.distance(x, y), space.distance(y, x));
  EXPECT_DOUBLE_EQ(space.distance(x, x), 0.0);
}

TEST(BoxSpace, BallSamplingRespectsRadius) {
  const auto space = unit_box(4);
  am::Rng rng(2);
  const am::Vec center(4, 0.5);
  for (int i = 0; i < 500; ++i) {
    const am::Vec x = space.sample_in_ball(center, 0.2, rng);
    ASSERT_LE(space.distance(x, center), 0.2 + 1e-9);
  }
}

TEST(Acquisition, NormalCdfPdfSanity) {
  EXPECT_NEAR(ab::normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(ab::normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(ab::normal_pdf(0.0), 0.39894, 1e-4);
}

TEST(Acquisition, ExpectedImprovementProperties) {
  // Nonnegative; zero std reduces to max(best - mean, 0).
  EXPECT_GE(ab::expected_improvement(0.5, 0.1, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(ab::expected_improvement(0.3, 0.0, 0.5), 0.2);
  EXPECT_DOUBLE_EQ(ab::expected_improvement(0.7, 0.0, 0.5), 0.0);
  // More uncertainty -> more EI at equal mean.
  EXPECT_GT(ab::expected_improvement(0.5, 0.3, 0.5), ab::expected_improvement(0.5, 0.1, 0.5));
}

TEST(Acquisition, ProbabilityOfImprovementMonotone) {
  // Lower mean -> higher probability of improving a minimization incumbent.
  EXPECT_GT(ab::probability_of_improvement(0.2, 0.1, 0.5),
            ab::probability_of_improvement(0.4, 0.1, 0.5));
  EXPECT_DOUBLE_EQ(ab::probability_of_improvement(0.2, 0.0, 0.5), 1.0);
}

TEST(Acquisition, ConfidenceBounds) {
  EXPECT_DOUBLE_EQ(ab::lower_confidence_bound(1.0, 0.5, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(ab::upper_confidence_bound(1.0, 0.5, 4.0), 2.0);
  // Negative beta treated as zero exploration.
  EXPECT_DOUBLE_EQ(ab::lower_confidence_bound(1.0, 0.5, -1.0), 1.0);
}

TEST(Acquisition, GpUcbBetaGrowsLogarithmically) {
  const double b1 = ab::gp_ucb_beta(1, 1000);
  const double b10 = ab::gp_ucb_beta(10, 1000);
  const double b100 = ab::gp_ucb_beta(100, 1000);
  EXPECT_GT(b10, b1);
  EXPECT_GT(b100, b10);
  // Log growth: increments shrink.
  EXPECT_LT(b100 - b10, 3.0 * (b10 - b1));
  // The theoretical schedule is large — the over-exploration Atlas avoids.
  EXPECT_GT(b100, 20.0);
}

TEST(Acquisition, CrgpUcbClipsAtB) {
  am::Rng rng(3);
  for (std::size_t n : {1u, 10u, 100u}) {
    for (int i = 0; i < 500; ++i) {
      const double beta = ab::crgp_ucb_beta(n, 0.1, 10.0, rng);
      ASSERT_GE(beta, 0.0);
      ASSERT_LE(beta, 10.0);
    }
  }
}

TEST(Acquisition, CrgpUcbConservativeVsGpUcb) {
  // The clipped randomized schedule stays well under the theoretical GP-UCB
  // beta — the conservatism argument of paper §6.2.
  am::Rng rng(4);
  am::RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(ab::crgp_ucb_beta(50, 0.1, 10.0, rng));
  EXPECT_LT(stats.mean(), ab::gp_ucb_beta(50, 2000));
}

TEST(Acquisition, RgpUcbGammaMeanMatchesTheory) {
  // Gamma(kappa, rho) has mean kappa * rho (Eq. 13's construction).
  am::Rng rng(5);
  const std::size_t n = 20;
  const double rho = 0.1;
  const double kappa =
      std::log((static_cast<double>(n * n) + 1.0) / std::sqrt(2.0 * M_PI)) /
      std::log(1.0 + rho / 2.0);
  am::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(ab::rgp_ucb_beta(n, rho, rng));
  EXPECT_NEAR(stats.mean(), kappa * rho, 0.2);
}

TEST(GpBo, MinimizesQuadraticBowl) {
  const auto space = unit_box(2);
  ab::GpBoOptions opts;
  opts.init_samples = 6;
  opts.candidates = 400;
  ab::GpBoMinimizer bo(space, opts);
  am::Rng rng(6);
  const auto result = bo.minimize(
      [](const am::Vec& x) {
        return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] - 0.7) * (x[1] - 0.7);
      },
      40, rng);
  EXPECT_LT(result.best_y, 0.02);
  EXPECT_NEAR(result.best_x[0], 0.3, 0.2);
  EXPECT_NEAR(result.best_x[1], 0.7, 0.2);
}

TEST(GpBo, BeatsRandomSearchOnSameBudget) {
  const auto space = unit_box(3);
  auto objective = [](const am::Vec& x) {
    double acc = 0.0;
    for (double v : x) acc += (v - 0.5) * (v - 0.5);
    return acc;
  };
  ab::GpBoOptions opts;
  opts.init_samples = 8;
  opts.candidates = 300;
  ab::GpBoMinimizer bo(space, opts);
  am::Rng rng(7);
  const double bo_best = bo.minimize(objective, 35, rng).best_y;

  am::Rng rrng(7);
  double random_best = 1e9;
  for (int i = 0; i < 35; ++i) random_best = std::min(random_best, objective(space.sample(rrng)));
  EXPECT_LE(bo_best, random_best);
}

TEST(GpBo, HistoryAndTellValidation) {
  const auto space = unit_box(1);
  ab::GpBoMinimizer bo(space);
  bo.tell({0.5}, 1.0);
  EXPECT_EQ(bo.observations(), 1u);
  EXPECT_THROW(bo.tell({0.1, 0.2}, 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(bo.result().best_y, 1.0);
}

TEST(Argmin, NanNeverWinsAScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ab::Argmin argmin;
  argmin.offer({0.0}, nan);
  argmin.offer({1.0}, 5.0);
  argmin.offer({2.0}, nan);
  EXPECT_EQ(argmin.best(), am::Vec{1.0});
  EXPECT_EQ(argmin.best_score(), 5.0);
}

TEST(Argmin, TiesKeepTheFirstOffered) {
  ab::Argmin argmin;
  argmin.offer({0.0}, 3.0);
  argmin.offer({1.0}, 1.0);
  argmin.offer({2.0}, 1.0);
  EXPECT_EQ(argmin.best(), am::Vec{1.0});
  EXPECT_EQ(argmin.best_score(), 1.0);
}

TEST(Argmin, EmptyScanHasNoBest) {
  ab::Argmin argmin;
  EXPECT_THROW(argmin.best(), std::out_of_range);
  EXPECT_THROW(argmin.best_score(), std::out_of_range);
  argmin.offer({1.0}, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(argmin.empty());
  EXPECT_THROW(argmin.best(), std::out_of_range);
}

TEST(ScanTile, CoversTheScanInBoundedTiles) {
  ab::ScanTile tile(3);
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> sizes;
  tile.scan(600, [&](std::size_t first) {
    firsts.push_back(first);
    sizes.push_back(tile.size());
    EXPECT_EQ(tile.inputs.rows(), tile.size());
    EXPECT_EQ(tile.inputs.cols(), 3u);
  });
  EXPECT_EQ(firsts, (std::vector<std::size_t>{0, 256, 512}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{256, 256, 88}));
  tile.scan(0, [&](std::size_t) { ADD_FAILURE() << "an empty scan has no tiles"; });
}
