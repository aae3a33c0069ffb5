#include <gtest/gtest.h>

#include <cmath>

#include "math/linalg.hpp"
#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"

namespace am = atlas::math;

TEST(Matrix, ConstructionAndIndexing) {
  am::Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerListAndTranspose) {
  am::Matrix m{{1, 2, 3}, {4, 5, 6}};
  const am::Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, ResizeReshapesInPlace) {
  am::Matrix m(4, 3, 1.0);
  m.resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.0);
  m.resize(3, 4);  // grows past the kept flat prefix: new elements are zero
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 3), 0.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((am::Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesHandComputation) {
  am::Matrix a{{1, 2}, {3, 4}};
  am::Matrix b{{5, 6}, {7, 8}};
  const am::Matrix c = am::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatvecAndTransposeMatvec) {
  am::Matrix a{{1, 2, 3}, {4, 5, 6}};
  const am::Vec y = am::matvec(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const am::Vec z = am::matvec_t(a, {1, 1});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  am::Matrix a(2, 3);
  am::Matrix b(2, 3);
  EXPECT_THROW(am::matmul(a, b), std::invalid_argument);
  EXPECT_THROW(am::matvec(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(Linalg, CholeskyRoundTrip) {
  // A = L0 L0^T with a known L0.
  am::Matrix l0{{2, 0, 0}, {1, 3, 0}, {0.5, -1, 1.5}};
  const am::Matrix a = am::matmul(l0, l0.transposed());
  const am::Matrix l = am::cholesky(a);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(l(i, j), l0(i, j), 1e-12);
    }
  }
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  am::Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(am::cholesky(a), std::runtime_error);
}

TEST(Linalg, JitteredCholeskyRepairsNearSingular) {
  am::Matrix a{{1, 1}, {1, 1}};  // PSD but singular
  const am::Matrix l = am::cholesky_jittered(a);
  EXPECT_GT(l(0, 0), 0.0);
  EXPECT_GT(l(1, 1), 0.0);
}

TEST(Linalg, CholeskySolveMatchesDirect) {
  am::Matrix l0{{1.5, 0}, {0.3, 2.0}};
  const am::Matrix a = am::matmul(l0, l0.transposed());
  const am::Vec b{1.0, -2.0};
  const am::Vec x = am::cholesky_solve(am::cholesky(a), b);
  const am::Vec back = am::matvec(a, x);
  EXPECT_NEAR(back[0], b[0], 1e-10);
  EXPECT_NEAR(back[1], b[1], 1e-10);
}

TEST(Linalg, LogDetFromCholesky) {
  am::Matrix a{{4, 0}, {0, 9}};
  EXPECT_NEAR(am::log_det_from_cholesky(am::cholesky(a)), std::log(36.0), 1e-12);
}

TEST(Linalg, GaussianEliminationSolves) {
  am::Matrix a{{0, 2, 1}, {3, -1, 2}, {1, 1, 1}};  // needs pivoting (a00 = 0)
  const am::Vec b{4, 5, 6};
  const am::Vec x = am::solve_linear(a, b);
  const am::Vec back = am::matvec(am::Matrix{{0, 2, 1}, {3, -1, 2}, {1, 1, 1}}, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(Linalg, SingularSystemThrows) {
  am::Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(am::solve_linear(a, {1.0, 2.0}), std::runtime_error);
}

TEST(Rng, Determinism) {
  am::Rng a(42);
  am::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependence) {
  am::Rng parent(42);
  am::Rng c1 = parent.fork(1);
  am::Rng c2 = parent.fork(2);
  // Children with different salts produce different streams.
  EXPECT_NE(c1.next_u64(), c2.next_u64());
  // Forking is deterministic.
  am::Rng c1b = parent.fork(1);
  c1 = parent.fork(1);
  EXPECT_EQ(c1.next_u64(), c1b.next_u64());
}

TEST(Rng, UniformRangeAndMean) {
  am::Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform(2.0, 4.0);
    ASSERT_GE(u, 2.0);
    ASSERT_LT(u, 4.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.02);
}

TEST(Rng, NormalMoments) {
  am::Rng rng(11);
  am::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, GammaMoments) {
  am::Rng rng(13);
  // Gamma(k, theta): mean k*theta, var k*theta^2.
  const double k = 3.0;
  const double theta = 2.0;
  am::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gamma(k, theta));
  EXPECT_NEAR(stats.mean(), k * theta, 0.1);
  EXPECT_NEAR(stats.variance(), k * theta * theta, 0.5);
}

TEST(Rng, GammaSmallShape) {
  am::Rng rng(17);
  am::RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.gamma(0.5, 1.0);
    ASSERT_GE(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.03);
}

TEST(Rng, ExponentialMean) {
  am::Rng rng(19);
  am::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(7.0));
  EXPECT_NEAR(stats.mean(), 7.0, 0.15);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  am::Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.truncated_normal(81.0, 35.0, 10.0, 400.0);
    ASSERT_GE(v, 10.0);
    ASSERT_LE(v, 400.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  am::Rng rng(29);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PermutationIsBijection) {
  am::Rng rng(31);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (auto idx : p) {
    ASSERT_LT(idx, 100u);
    ASSERT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(Stats, SummaryBasics) {
  const auto s = am::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptySummaryIsZero) {
  const auto s = am::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, QuantileInterpolation) {
  EXPECT_DOUBLE_EQ(am::quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(am::quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(am::quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_THROW(am::quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, EmpiricalCdf) {
  const am::Vec v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(am::empirical_cdf_at(v, 25), 0.5);
  EXPECT_DOUBLE_EQ(am::empirical_cdf_at(v, 5), 0.0);
  EXPECT_DOUBLE_EQ(am::empirical_cdf_at(v, 100), 1.0);
}

TEST(Stats, HistogramConservesMassWithClamping) {
  // Bins of width 0.5 over [0,2): half-open binning puts 0.5 into bin 1.
  const auto h = am::make_histogram({-5.0, 0.5, 1.5, 99.0}, 0.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.counts.front(), 1.0);  // -5 clamped into bin 0
  EXPECT_DOUBLE_EQ(h.counts[1], 1.0);       // 0.5
  EXPECT_DOUBLE_EQ(h.counts.back(), 2.0);   // 1.5 and 99 (clamped)
}

TEST(Stats, HistogramProbabilitiesSumToOne) {
  const auto h = am::make_histogram({1, 2, 3}, 0.0, 4.0, 8);
  const auto p = h.probabilities(0.5);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Stats, RunningStatsMatchesBatch) {
  am::Rng rng(37);
  am::Vec data;
  am::RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    data.push_back(v);
    rs.add(v);
  }
  const auto s = am::summarize(data);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-10);
  EXPECT_NEAR(rs.variance(), s.variance, 1e-8);
}

TEST(VecOps, DotNormDistance) {
  EXPECT_DOUBLE_EQ(am::dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(am::norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(am::squared_distance({1, 1}, {4, 5}), 25.0);
  EXPECT_THROW(am::dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}
