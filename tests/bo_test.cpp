#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/acquisition.hpp"
#include "bo/argmin.hpp"
#include "bo/gp_bo.hpp"
#include "bo/scan_tile.hpp"
#include "bo/space.hpp"
#include "gp/gaussian_process.hpp"
#include "math/halton.hpp"
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

/// GpBoMinimizer::ask's scan written one candidate at a time: the same
/// draws, one GaussianProcess::predict per candidate, the first maximum wins.
am::Vec ask_one_by_one(const ab::BoxSpace& space, const ab::GpBoOptions& opts,
                       const std::vector<am::Vec>& xs, const am::Vec& ys, am::Rng& rng) {
  am::Matrix x_norm(xs.size(), space.dim());
  for (std::size_t r = 0; r < xs.size(); ++r) {
    x_norm.set_row(r, space.normalize(space.clamp(xs[r])));
  }
  atlas::gp::GaussianProcess gp(opts.gp);
  gp.fit(x_norm, ys);
  const std::size_t n_cand = std::max<std::size_t>(8, opts.candidates);
  const am::Matrix cand = space.sample_batch(n_cand, rng);
  const std::size_t iter = xs.size() + 1;
  const double incumbent = *std::min_element(ys.begin(), ys.end());
  double beta = opts.ucb_beta;
  if (opts.acquisition == ab::AcquisitionKind::kGpUcb) {
    beta = ab::gp_ucb_beta(iter, n_cand, opts.delta);
  } else if (opts.acquisition == ab::AcquisitionKind::kCrgpUcb) {
    beta = ab::crgp_ucb_beta(iter, opts.crgp_rho, opts.crgp_clip, rng);
  }
  double best_util = -std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < n_cand; ++i) {
    const auto post = gp.predict(space.normalize(cand.row(i)));
    double util = 0.0;
    switch (opts.acquisition) {
      case ab::AcquisitionKind::kEi:
        util = ab::expected_improvement(post.mean, post.std, incumbent, opts.xi);
        break;
      case ab::AcquisitionKind::kPi:
        util = ab::probability_of_improvement(post.mean, post.std, incumbent, opts.xi);
        break;
      case ab::AcquisitionKind::kUcb:
      case ab::AcquisitionKind::kGpUcb:
      case ab::AcquisitionKind::kCrgpUcb:
        util = -ab::lower_confidence_bound(post.mean, post.std, beta);
        break;
      case ab::AcquisitionKind::kThompson:
        util = -(post.mean + post.std * rng.normal());
        break;
    }
    if (util > best_util) {
      best_util = util;
      best_idx = i;
    }
  }
  return cand.row(best_idx);
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

namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The Vec-building expressions the scans used before the in-place forms,
/// spelled out independently of BoxSpace.
struct ReferenceBox {
  am::Vec lo, hi;

  am::Vec sample(am::Rng& rng) const {
    am::Vec x(lo.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(lo[i], hi[i]);
    return x;
  }
  am::Vec normalize(const am::Vec& x) const {
    am::Vec u(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) u[i] = (x[i] - lo[i]) / (hi[i] - lo[i]);
    return u;
  }
  am::Vec denormalize(const am::Vec& u) const {
    am::Vec x(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) x[i] = lo[i] + u[i] * (hi[i] - lo[i]);
    return x;
  }
  double distance(const am::Vec& a, const am::Vec& b) const {
    return std::sqrt(am::squared_distance(normalize(a), normalize(b)) /
                     static_cast<double>(a.size()));
  }
  /// Counts the draws that took the fallback in `fallbacks`.
  am::Vec sample_in_ball(const am::Vec& center, double radius, am::Rng& rng,
                         int& fallbacks) const {
    am::Vec clamped = center;
    for (std::size_t i = 0; i < clamped.size(); ++i) {
      clamped[i] = std::clamp(clamped[i], lo[i], hi[i]);
    }
    const am::Vec c = normalize(clamped);
    for (int t = 0; t < 64; ++t) {
      const am::Vec x = sample(rng);
      if (distance(x, center) <= radius) return x;
    }
    ++fallbacks;
    am::Vec u(lo.size());
    double norm = 0.0;
    for (auto& v : u) {
      v = rng.normal();
      norm += v * v;
    }
    norm = std::sqrt(std::max(norm, 1e-12));
    const double scale = radius * std::sqrt(static_cast<double>(lo.size())) * rng.uniform();
    am::Vec x(lo.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double out = std::clamp(c[i] + u[i] / norm * scale, 0.0, 1.0);
      x[i] = lo[i] + out * (hi[i] - lo[i]);
    }
    return x;
  }
};

/// Ranges spanning three orders of magnitude, like the Table 2/3 spaces.
const ReferenceBox kRef{{0.0, -5.0, 0.5, 10.0, 0.0}, {50.0, 5.0, 0.9, 100.0, 1.0}};
const ab::BoxSpace kSpace({"a", "b", "c", "d", "e"}, kRef.lo, kRef.hi);

void expect_same_bits(const am::Vec& got, const double* want, const char* what) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << " coordinate " << i;
  }
}

}  // namespace

// The in-place forms the acquisition scans write their tiles with give the
// Vec forms' bits, and both give the reference expressions' bits with the
// same draws from the RNG.
TEST(BoxSpace, InPlaceFormsMatchTheVecFormsBitForBit) {
  const std::size_t d = kSpace.dim();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    am::Rng ref_rng(seed);
    am::Rng vec_rng(seed);
    am::Rng row_rng(seed);
    for (int n = 0; n < 20; ++n) {
      const am::Vec want = kRef.sample(ref_rng);
      const am::Vec got = kSpace.sample(vec_rng);
      am::Vec row(d);
      kSpace.sample(row_rng, row.data());
      expect_same_bits(got, want.data(), "sample");
      expect_same_bits(row, want.data(), "in-place sample");

      const am::Vec want_u = kRef.normalize(want);
      am::Vec u(d);
      kSpace.normalize(row.data(), u.data());
      expect_same_bits(kSpace.normalize(want), want_u.data(), "normalize");
      expect_same_bits(u, want_u.data(), "in-place normalize");

      const am::Vec other = kRef.sample(ref_rng);
      (void)kSpace.sample(vec_rng);
      kSpace.sample(row_rng, row.data());
      const double want_dist = kRef.distance(want, other);
      ASSERT_EQ(bits(kSpace.distance(want, other)), bits(want_dist));
      ASSERT_EQ(bits(kSpace.normalized_distance(u.data(), kRef.normalize(other).data())),
                bits(want_dist));
    }
    const std::uint64_t next = ref_rng.next_u64();
    ASSERT_EQ(vec_rng.next_u64(), next) << "seed " << seed;
    ASSERT_EQ(row_rng.next_u64(), next) << "seed " << seed;
  }
  am::Rng batch_rng(3);
  const am::Matrix batch = kSpace.sample_batch(7, batch_rng);
  am::Rng ref_rng(3);
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    expect_same_bits(batch.row(r), kRef.sample(ref_rng).data(), "sample_batch");
  }
}

// Same rejection count and fallback draw order: a centre outside the box
// (clamped for the fallback, not for the distance) and radii small enough
// that some draws take the 64-try fallback.
TEST(BoxSpace, InPlaceBallSamplingMatchesTheVecFormBitForBit) {
  const std::size_t d = kSpace.dim();
  const am::Vec center{10.0, 6.0, 0.6, 20.0, 0.5};
  int fallbacks = 0;
  for (const double radius : {0.5, 0.2, 0.05}) {
    const ab::BoxSpace::Ball ball = kSpace.ball(center, radius);
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      am::Rng ref_rng(seed);
      am::Rng vec_rng(seed);
      am::Rng row_rng(seed);
      for (int n = 0; n < 10; ++n) {
        const am::Vec want = kRef.sample_in_ball(center, radius, ref_rng, fallbacks);
        expect_same_bits(kSpace.sample_in_ball(center, radius, vec_rng), want.data(),
                         "sample_in_ball");
        am::Vec x(d);
        am::Vec u(d);
        kSpace.sample_in_ball(ball, row_rng, x.data(), u.data());
        expect_same_bits(x, want.data(), "in-place sample_in_ball");
        expect_same_bits(u, kRef.normalize(want).data(), "in-place sample_in_ball's u");
      }
      const std::uint64_t next = ref_rng.next_u64();
      ASSERT_EQ(vec_rng.next_u64(), next) << "radius " << radius;
      ASSERT_EQ(row_rng.next_u64(), next) << "radius " << radius;
    }
  }
  EXPECT_GT(fallbacks, 0) << "no draw reached the fallback";
}

// Stage 1's Halton candidates: a Halton point written in place and mapped
// into the box in place give the Vec forms' bits.
TEST(BoxSpace, InPlaceHaltonCandidatesMatchTheVecFormsBitForBit) {
  const std::size_t d = kSpace.dim();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    am::Rng vec_rng(seed);
    am::Rng row_rng(seed);
    am::HaltonSequence vec_seq(d, vec_rng);
    am::HaltonSequence row_seq(d, row_rng);
    am::Vec h(d);
    am::Vec x(d);
    for (int n = 0; n < 100; ++n) {
      const am::Vec want_h = vec_seq.next();
      row_seq.next(h.data());
      expect_same_bits(h, want_h.data(), "in-place Halton point");
      const am::Vec want_x = kRef.denormalize(want_h);
      kSpace.denormalize(h.data(), x.data());
      expect_same_bits(x, want_x.data(), "in-place denormalize");
      expect_same_bits(kSpace.denormalize(want_h), want_x.data(), "denormalize");
    }
    const am::Matrix batch = row_seq.batch(5);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      expect_same_bits(batch.row(r), vec_seq.next().data(), "Halton batch");
    }
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

TEST(GpBo, TiledAskMatchesTheOneByOneScanBitForBit) {
  const ab::BoxSpace space({"a", "b"}, {0.0, -5.0}, {50.0, 5.0});
  const std::vector<am::Vec> xs = {
      {5.0, -4.0}, {20.0, 1.0}, {35.0, 3.5}, {48.0, -2.0}, {12.0, 0.5}};
  am::Vec ys;
  for (const am::Vec& x : xs) ys.push_back(std::sin(0.1 * x[0]) + 0.2 * x[1] * x[1]);
  for (const auto kind : {ab::AcquisitionKind::kEi, ab::AcquisitionKind::kPi,
                          ab::AcquisitionKind::kUcb, ab::AcquisitionKind::kGpUcb,
                          ab::AcquisitionKind::kCrgpUcb, ab::AcquisitionKind::kThompson}) {
    ab::GpBoOptions opts;
    opts.acquisition = kind;
    opts.init_samples = 3;
    opts.candidates = 2 * ab::ScanTile::kSize + 37;  // two full tiles and a partial one
    ab::GpBoMinimizer bo(space, opts);
    for (std::size_t r = 0; r < xs.size(); ++r) bo.tell(xs[r], ys[r]);
    am::Rng rng(31);
    am::Rng ref_rng(31);
    EXPECT_EQ(bo.ask(rng), ask_one_by_one(space, opts, xs, ys, ref_rng))
        << "acquisition " << static_cast<int>(kind);
    EXPECT_EQ(rng.uniform(), ref_rng.uniform()) << "the same draws in the same order";
  }
}

TEST(GpBo, AskKeepsTheFirstOfTiedCandidates) {
  // With no observation the GP answers its prior for every candidate, so
  // every utility ties and the first candidate drawn must win.
  const auto space = unit_box(3);
  for (const auto kind :
       {ab::AcquisitionKind::kEi, ab::AcquisitionKind::kPi, ab::AcquisitionKind::kUcb}) {
    ab::GpBoOptions opts;
    opts.acquisition = kind;
    opts.init_samples = 0;
    opts.candidates = ab::ScanTile::kSize + 1;
    ab::GpBoMinimizer bo(space, opts);
    am::Rng rng(5);
    am::Rng ref_rng(5);
    EXPECT_EQ(bo.ask(rng), space.sample_batch(opts.candidates, ref_rng).row(0))
        << "acquisition " << static_cast<int>(kind);
  }
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
  ab::ScanTile tile(2, 3);
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> sizes;
  tile.scan(600, [&](std::size_t first) {
    firsts.push_back(first);
    sizes.push_back(tile.size());
    EXPECT_EQ(tile.inputs.rows(), tile.size());
    EXPECT_EQ(tile.inputs.cols(), 3u);
    for (std::size_t k = 0; k < tile.size(); ++k) {
      ASSERT_EQ(tile.point(k).size(), 2u);
      ASSERT_EQ(tile.input(k), tile.inputs.data() + 3 * k);
    }
  });
  EXPECT_EQ(firsts, (std::vector<std::size_t>{0, 256, 512}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{256, 256, 88}));
  tile.scan(0, [&](std::size_t) { ADD_FAILURE() << "an empty scan has no tiles"; });
}
