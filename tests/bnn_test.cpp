#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "math/rng.hpp"
#include "math/stats.hpp"
#include "nn/bnn.hpp"
#include "nn/dense_kernel.hpp"
#include "nn/optim.hpp"

namespace am = atlas::math;
namespace an = atlas::nn;

namespace {

an::BnnConfig small_config() {
  an::BnnConfig cfg;
  cfg.sizes = {1, 24, 24, 1};
  cfg.noise_sigma = 0.05;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Scalar forward pass over an input-major sample in the documented order:
/// bias + w_0 h_0 + w_1 h_1 + ..., ReLU on every hidden layer.
double reference_predict(const an::BnnSample& s, const am::Vec& x) {
  am::Vec h = x;
  for (std::size_t l = 0; l < s.weights.size(); ++l) {
    const am::Matrix& w = s.weights[l];
    am::Vec next(w.cols());
    for (std::size_t o = 0; o < w.cols(); ++o) {
      double acc = s.biases[l][o];
      for (std::size_t i = 0; i < w.rows(); ++i) acc += w(i, o) * h[i];
      next[o] = (l + 1 < s.weights.size() && acc < 0.0) ? 0.0 : acc;
    }
    h = std::move(next);
  }
  return h[0];
}

/// A network of the given shape after a few training steps, which move the
/// posterior-mean biases off zero.
an::Bnn trained_bnn(const std::vector<std::size_t>& sizes, am::Rng& rng) {
  an::BnnConfig cfg;
  cfg.sizes = sizes;
  an::Bnn bnn(cfg, rng);
  am::Matrix tx(32, sizes[0]);
  am::Vec ty(32);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < sizes[0]; ++j) tx(i, j) = rng.uniform(-1.0, 1.0);
    ty[i] = rng.uniform(0.0, 1.0);
  }
  an::Adadelta opt(1.0);
  bnn.train(tx, ty, 2, 8, opt, nullptr, rng);
  return bnn;
}

am::Matrix random_rows(std::size_t rows, std::size_t cols, am::Rng& rng) {
  am::Matrix x(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
  }
  return x;
}

}  // namespace

TEST(Bnn, RejectsBadArchitectures) {
  am::Rng rng(1);
  an::BnnConfig cfg;
  cfg.sizes = {3};
  EXPECT_THROW(an::Bnn(cfg, rng), std::invalid_argument);
  cfg.sizes = {3, 8, 2};  // output must be scalar
  EXPECT_THROW(an::Bnn(cfg, rng), std::invalid_argument);
}

TEST(Bnn, KlToPriorPositiveAndShrinksTowardPrior) {
  am::Rng rng(2);
  an::BnnConfig cfg = small_config();
  an::Bnn bnn(cfg, rng);
  const double kl = bnn.kl_to_prior();
  EXPECT_GT(kl, 0.0);
  EXPECT_TRUE(std::isfinite(kl));
}

TEST(Bnn, ThompsonSamplesDiffer) {
  am::Rng rng(3);
  an::Bnn bnn(small_config(), rng);
  const auto s1 = bnn.thompson(rng);
  const auto s2 = bnn.thompson(rng);
  EXPECT_NE(s1.predict({0.5}), s2.predict({0.5}));
}

TEST(Bnn, BatchPredictMatchesScalarPredict) {
  // Row counts straddle the kernel's 4-row blocks and the scans' 256-row tiles.
  const std::vector<std::vector<std::size_t>> shapes = {
      {6, 64, 64, 1}, {8, 64, 64, 1}, {5, 7, 3, 1}};
  for (const auto& sizes : shapes) {
    am::Rng rng(4);
    const an::Bnn bnn = trained_bnn(sizes, rng);
    const an::BnnSample draw = bnn.thompson(rng);
    const an::BnnSample mean = bnn.mean_sample();
    for (std::size_t rows : {0, 1, 3, 4, 5, 255, 256, 257}) {
      const am::Matrix x = random_rows(rows, sizes[0], rng);
      const am::Vec drawn = draw.predict_batch(x);
      const am::Vec at_mean = mean.predict_batch(x);
      ASSERT_EQ(drawn.size(), rows);
      ASSERT_EQ(at_mean.size(), rows);
      for (std::size_t i = 0; i < rows; ++i) {
        const am::Vec row = x.row(i);
        ASSERT_EQ(bits(drawn[i]), bits(draw.predict(row))) << "rows " << rows << " row " << i;
        ASSERT_EQ(bits(drawn[i]), bits(reference_predict(draw, row))) << "rows " << rows;
        ASSERT_EQ(bits(at_mean[i]), bits(bnn.predict_at_mean(row))) << "rows " << rows;
        ASSERT_EQ(bits(at_mean[i]), bits(reference_predict(mean, row))) << "rows " << rows;
      }
    }
  }
}

/// Every lane count of the dense kernel that this CPU runs gives the 2-lane
/// kernel's bits, and the 2-lane kernel gives the scalar reference's. CI runs
/// the golden suites without their pinned hashes, so this is its check that a
/// dispatched width matches the reference.
class BnnKernelWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BnnKernelWidth, MatchesTheTwoLaneKernelBitForBit) {
  const std::size_t lanes = GetParam();
  if (!an::dense_kernel::supported(lanes)) {
    GTEST_SKIP() << "this CPU has no " << lanes << "-lane kernel";
  }
  // The scoring networks of stages 1-3 (8-64-64-1), kBnnResidual's
  // (6-48-48-1), and odd widths that leave remainder outputs at every width.
  const std::vector<std::vector<std::size_t>> shapes = {
      {8, 64, 64, 1}, {6, 48, 48, 1}, {7, 63, 5, 1}};
  for (const auto& sizes : shapes) {
    am::Rng rng(11);
    const an::Bnn bnn = trained_bnn(sizes, rng);
    for (const an::BnnSample& s : {bnn.thompson(rng), bnn.mean_sample()}) {
      for (std::size_t rows : {0, 1, 3, 4, 5, 255, 256, 257}) {
        const am::Matrix x = random_rows(rows, sizes[0], rng);
        am::Vec got(rows);
        am::Vec want(rows);
        an::dense_kernel::predict_rows(lanes, s, x.data(), rows, sizes[0], got.data());
        an::dense_kernel::predict_rows(2, s, x.data(), rows, sizes[0], want.data());
        for (std::size_t i = 0; i < rows; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i]))
              << lanes << " lanes, input width " << sizes[0] << ", rows " << rows << " row " << i;
          ASSERT_EQ(bits(want[i]), bits(reference_predict(s, x.row(i))))
              << "input width " << sizes[0] << ", rows " << rows << " row " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, BnnKernelWidth,
                         ::testing::ValuesIn(an::dense_kernel::kLaneCounts),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "lanes" + std::to_string(info.param);
                         });

TEST(Bnn, DispatchesTheWidestSupportedKernel) {
  const std::size_t dispatched = an::dense_kernel::dispatched_lanes();
  EXPECT_TRUE(an::dense_kernel::supported(dispatched));
  for (std::size_t lanes : an::dense_kernel::kLaneCounts) {
    if (lanes > dispatched) {
      EXPECT_FALSE(an::dense_kernel::supported(lanes)) << lanes;
    }
  }
#if defined(__x86_64__)
  const std::size_t widest = __builtin_cpu_supports("avx512f") ? 8
                             : __builtin_cpu_supports("avx2") ? 4
                                                               : 2;
  EXPECT_EQ(dispatched, widest);
#endif
  am::Rng rng(12);
  const an::Bnn bnn = trained_bnn({8, 64, 64, 1}, rng);
  const an::BnnSample draw = bnn.thompson(rng);
  am::Vec out(1);
  EXPECT_THROW(an::dense_kernel::predict_rows(3, draw, out.data(), 0, 8, out.data()),
               std::invalid_argument);
}

TEST(Bnn, PredictRejectsWrongInputWidth) {
  am::Rng rng(4);
  an::Bnn bnn(small_config(), rng);
  EXPECT_THROW(bnn.thompson(rng).predict({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(bnn.mean_sample().predict_batch(am::Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(bnn.predict_at_mean({0.1, 0.2}), std::invalid_argument);
}

TEST(Bnn, MeanSampleIsASnapshot) {
  am::Rng rng(4);
  an::Bnn bnn(small_config(), rng);
  const an::BnnSample before = bnn.mean_sample();
  const double at_mean = bnn.predict_at_mean({0.3});
  am::Matrix x(16, 1);
  am::Vec y(16, 0.9);
  for (std::size_t i = 0; i < 16; ++i) x(i, 0) = static_cast<double>(i) / 16.0;
  an::Adadelta opt(1.0);
  bnn.train(x, y, 5, 8, opt, nullptr, rng);
  EXPECT_EQ(bits(before.predict({0.3})), bits(at_mean));
  EXPECT_NE(bits(bnn.mean_sample().predict({0.3})), bits(at_mean));
}

TEST(Bnn, FitsSmoothFunction) {
  am::Rng rng(5);
  an::Bnn bnn(small_config(), rng);
  const std::size_t n = 200;
  am::Matrix x(n, 1);
  am::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(i) / n;
    x(i, 0) = v;
    y[i] = std::sin(4.0 * v);
  }
  an::Adadelta opt(1.0);
  an::StepLr sched(opt, 1, 0.999);
  bnn.train(x, y, 400, 32, opt, &sched, rng);
  // Posterior-mean prediction should be close on the training range.
  double err = 0.0;
  for (std::size_t i = 0; i < n; i += 10) {
    err += std::fabs(bnn.predict_at_mean(x.row(i)) - y[i]);
  }
  EXPECT_LT(err / 20.0, 0.15);
}

TEST(Bnn, PredictMeanStdReasonable) {
  am::Rng rng(6);
  an::Bnn bnn(small_config(), rng);
  am::Matrix x(50, 1);
  am::Vec y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = static_cast<double>(i) / 50.0;
    y[i] = 0.5;
  }
  an::Adadelta opt(1.0);
  bnn.train(x, y, 200, 25, opt, nullptr, rng);
  const auto ms = bnn.predict({0.5}, 32, rng);
  EXPECT_NEAR(ms.mean, 0.5, 0.15);
  EXPECT_GE(ms.std, 0.0);
}

TEST(Bnn, TrainingReducesLoss) {
  am::Rng rng(7);
  an::Bnn bnn(small_config(), rng);
  const std::size_t n = 128;
  am::Matrix x(n, 1);
  am::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = 0.3 + 0.4 * x(i, 0);
  }
  an::Adadelta opt(1.0);
  const double first = bnn.train(x, y, 5, 32, opt, nullptr, rng);
  const double later = bnn.train(x, y, 200, 32, opt, nullptr, rng);
  EXPECT_LT(later, first);
}

TEST(Bnn, ScaleMixturePriorTrains) {
  am::Rng rng(8);
  an::BnnConfig cfg = small_config();
  cfg.prior = an::BnnPrior::kScaleMixtureMc;
  an::Bnn bnn(cfg, rng);
  am::Matrix x(64, 1);
  am::Vec y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = static_cast<double>(i) / 64.0;
    y[i] = x(i, 0);
  }
  an::Adadelta opt(1.0);
  const double first = bnn.train(x, y, 5, 32, opt, nullptr, rng);
  const double later = bnn.train(x, y, 150, 32, opt, nullptr, rng);
  EXPECT_LT(later, first);
  // Analytic KL is undefined for the mixture prior.
  EXPECT_THROW(bnn.kl_to_prior(), std::logic_error);
}

TEST(Bnn, UncertaintyHigherAwayFromData) {
  am::Rng rng(9);
  an::BnnConfig cfg = small_config();
  an::Bnn bnn(cfg, rng);
  // Train only on x in [0, 0.3].
  const std::size_t n = 150;
  am::Matrix x(n, 1);
  am::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = 0.3 * static_cast<double>(i) / n;
    y[i] = x(i, 0);
  }
  an::Adadelta opt(1.0);
  bnn.train(x, y, 300, 32, opt, nullptr, rng);
  const auto in_region = bnn.predict({0.15}, 48, rng);
  const auto out_region = bnn.predict({3.0}, 48, rng);
  EXPECT_GT(out_region.std, in_region.std);
}
