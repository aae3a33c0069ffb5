#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"

namespace am = atlas::math;
namespace ag = atlas::gp;

TEST(Kernel, ValueAtZeroDistanceIsVariance) {
  for (auto kind : {ag::KernelKind::kRbf, ag::KernelKind::kMatern12, ag::KernelKind::kMatern32,
                    ag::KernelKind::kMatern52}) {
    ag::Kernel k;
    k.kind = kind;
    k.variance = 2.5;
    EXPECT_NEAR(k.at_distance(0.0), 2.5, 1e-12);
  }
}

TEST(Kernel, MonotoneDecreasingInDistance) {
  for (auto kind : {ag::KernelKind::kRbf, ag::KernelKind::kMatern12, ag::KernelKind::kMatern32,
                    ag::KernelKind::kMatern52}) {
    ag::Kernel k;
    k.kind = kind;
    double prev = k.at_distance(0.0);
    for (double r = 0.1; r < 5.0; r += 0.1) {
      const double v = k.at_distance(r);
      ASSERT_LT(v, prev) << "kind " << static_cast<int>(kind) << " r " << r;
      prev = v;
    }
  }
}

TEST(Kernel, Matern52GeneralizesRbfAtLargeLength) {
  // As nu -> inf Matern approaches RBF; 5/2 is already close for small r.
  ag::Kernel m52{ag::KernelKind::kMatern52, 1.0, 1.0};
  ag::Kernel rbf{ag::KernelKind::kRbf, 1.0, 1.0};
  EXPECT_NEAR(m52.at_distance(0.1), rbf.at_distance(0.1), 0.01);
}

TEST(Kernel, GramIsSymmetricPsd) {
  am::Rng rng(1);
  am::Matrix x(12, 3);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform(0, 1);
  }
  ag::Kernel k{ag::KernelKind::kMatern52, 1.0, 0.5};
  am::Matrix g = ag::gram(k, x);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    g(i, i) += 1e-9;
  }
  EXPECT_NO_THROW(am::cholesky_jittered(g));
}

TEST(Gp, InterpolatesNoiselessTrainingPoints) {
  ag::GpConfig cfg;
  cfg.noise_variance = 1e-8;
  cfg.optimize_hyperparams = false;
  ag::GaussianProcess gp(cfg);
  am::Matrix x(5, 1);
  am::Vec y{0.0, 0.8, 0.9, 0.2, -0.5};
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = static_cast<double>(i) / 5.0;
  gp.fit(x, y);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 1e-4);
    EXPECT_LT(p.std, 0.02);
  }
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  ag::GaussianProcess gp;
  am::Matrix x(4, 1);
  am::Vec y{0.1, 0.2, 0.15, 0.3};
  for (std::size_t i = 0; i < 4; ++i) x(i, 0) = 0.2 + 0.05 * static_cast<double>(i);
  gp.fit(x, y);
  EXPECT_GT(gp.predict({3.0}).std, gp.predict({0.25}).std);
}

TEST(Gp, PriorBeforeFit) {
  ag::GaussianProcess gp;
  EXPECT_FALSE(gp.fitted());
  const auto p = gp.predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_GT(p.std, 0.0);
}

TEST(Gp, HyperparameterFitImprovesLml) {
  am::Rng rng(2);
  const std::size_t n = 40;
  am::Matrix x(n, 1);
  am::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = std::sin(8.0 * x(i, 0)) + rng.normal(0.0, 0.05);
  }
  ag::GpConfig fixed;
  fixed.optimize_hyperparams = false;
  ag::GaussianProcess gp_fixed(fixed);
  gp_fixed.fit(x, y);

  ag::GpConfig tuned;
  tuned.optimize_hyperparams = true;
  ag::GaussianProcess gp_tuned(tuned);
  gp_tuned.fit(x, y);
  EXPECT_GE(gp_tuned.log_marginal_likelihood(), gp_fixed.log_marginal_likelihood());
}

TEST(Gp, NormalizationHandlesLargeOffsets) {
  // Targets around 1000 with small variation: normalize_y must keep the
  // posterior honest.
  ag::GaussianProcess gp;
  am::Matrix x(6, 1);
  am::Vec y{1000.0, 1001.0, 1002.0, 1001.5, 1000.5, 1002.5};
  for (std::size_t i = 0; i < 6; ++i) x(i, 0) = static_cast<double>(i) / 6.0;
  gp.fit(x, y);
  const auto p = gp.predict({0.25});
  EXPECT_NEAR(p.mean, 1001.0, 2.0);
}

TEST(Gp, RecoversSmoothFunction) {
  am::Rng rng(3);
  const std::size_t n = 60;
  am::Matrix x(n, 1);
  am::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = 0.3 * std::sin(6.0 * x(i, 0)) + 0.5;
  }
  ag::GaussianProcess gp;
  gp.fit(x, y);
  double err = 0.0;
  for (double v = 0.05; v < 0.95; v += 0.1) {
    err += std::fabs(gp.predict({v}).mean - (0.3 * std::sin(6.0 * v) + 0.5));
  }
  EXPECT_LT(err / 9.0, 0.03);
}

TEST(Gp, BatchPredictMatchesScalar) {
  ag::GaussianProcess gp;
  am::Matrix x(5, 2);
  am::Vec y{1, 2, 3, 2, 1};
  am::Rng rng(4);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    x(i, 1) = rng.uniform(0, 1);
  }
  gp.fit(x, y);
  am::Matrix q(3, 2, 0.4);
  q(1, 0) = 0.1;
  q(2, 1) = 0.9;
  const auto batch = gp.predict_batch(q);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto p = gp.predict(q.row(i));
    EXPECT_DOUBLE_EQ(batch[i].mean, p.mean);
    EXPECT_DOUBLE_EQ(batch[i].std, p.std);
  }
}

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The posterior one point at a time, the way predict computed it before
/// batching: cross(), dot() and solve_lower() on the same factorization.
ag::Posterior reference_posterior(const ag::GaussianProcess& gp, const ag::GpConfig& cfg,
                                  const am::Matrix& x, const am::Vec& y, const am::Vec& xs) {
  const auto s = am::summarize(y);
  const double y_mean = s.mean;
  const double y_std = s.stddev > 1e-12 ? s.stddev : 1.0;
  am::Vec y_norm = y;
  for (auto& v : y_norm) v = (v - y_mean) / y_std;
  am::Matrix g = ag::gram(gp.kernel(), x);
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += cfg.noise_variance;
  const am::Matrix chol = am::cholesky_jittered(g);
  const am::Vec alpha = am::cholesky_solve(chol, y_norm);
  const am::Vec ks = ag::cross(gp.kernel(), x, xs);
  const am::Vec v = am::solve_lower(chol, ks);
  ag::Posterior p;
  p.mean = am::dot(ks, alpha) * y_std + y_mean;
  p.std = std::sqrt(std::max(0.0, gp.kernel().at_distance(0.0) - am::dot(v, v))) * y_std;
  return p;
}

}  // namespace

TEST(Gp, BatchPredictIsBitIdenticalPerKernel) {
  for (auto kind : {ag::KernelKind::kRbf, ag::KernelKind::kMatern12, ag::KernelKind::kMatern32,
                    ag::KernelKind::kMatern52}) {
    am::Rng rng(5);
    ag::GpConfig cfg;
    cfg.kernel = kind;
    ag::GaussianProcess gp(cfg);
    am::Matrix x(20, 6);
    am::Vec y(20);
    for (std::size_t i = 0; i < 20; ++i) {
      for (std::size_t d = 0; d < 6; ++d) x(i, d) = rng.uniform(0, 1);
      y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1) * x(i, 2);
    }
    gp.fit(x, y);
    for (std::size_t rows : {0, 1, 7, 257}) {
      am::Matrix q(rows, 6);
      for (std::size_t j = 0; j < rows; ++j) {
        for (std::size_t d = 0; d < 6; ++d) q(j, d) = rng.uniform(-0.2, 1.2);
      }
      const auto batch = gp.predict_batch(q);
      ASSERT_EQ(batch.size(), rows);
      for (std::size_t j = 0; j < rows; ++j) {
        const am::Vec row = q.row(j);
        const auto one = gp.predict(row);
        const auto ref = reference_posterior(gp, cfg, x, y, row);
        ASSERT_EQ(bits(batch[j].mean), bits(one.mean)) << static_cast<int>(kind);
        ASSERT_EQ(bits(batch[j].std), bits(one.std)) << static_cast<int>(kind);
        ASSERT_EQ(bits(batch[j].mean), bits(ref.mean)) << static_cast<int>(kind);
        ASSERT_EQ(bits(batch[j].std), bits(ref.std)) << static_cast<int>(kind);
      }
    }
  }
}

TEST(Gp, BatchPredictBeforeFitIsThePrior) {
  ag::GaussianProcess gp;
  const auto batch = gp.predict_batch(am::Matrix(3, 2, 0.5));
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& p : batch) {
    EXPECT_EQ(bits(p.mean), bits(gp.predict({0.5, 0.5}).mean));
    EXPECT_EQ(bits(p.std), bits(gp.predict({0.5, 0.5}).std));
  }
}

TEST(Gp, PredictRejectsWrongDimension) {
  ag::GaussianProcess gp;
  gp.fit(am::Matrix(3, 2, 0.5), {1.0, 2.0, 3.0});
  EXPECT_THROW(gp.predict({0.5}), std::invalid_argument);
  EXPECT_THROW(gp.predict_batch(am::Matrix(4, 3)), std::invalid_argument);
}

TEST(Gp, FitValidatesInput) {
  ag::GaussianProcess gp;
  am::Matrix x(2, 1);
  EXPECT_THROW(gp.fit(x, {1.0}), std::invalid_argument);
  EXPECT_THROW(gp.fit(am::Matrix(0, 1), {}), std::invalid_argument);
}
