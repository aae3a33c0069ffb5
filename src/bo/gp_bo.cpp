#include "bo/gp_bo.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bo/scan_tile.hpp"

namespace atlas::bo {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

GpBoMinimizer::GpBoMinimizer(BoxSpace space, GpBoOptions options)
    : space_(std::move(space)), options_(options), surrogate_(options.gp) {}

void GpBoMinimizer::refit() {
  if (!dirty_ || y_.empty()) return;
  surrogate_.fit(x_norm_, y_);
  dirty_ = false;
}

Vec GpBoMinimizer::ask(Rng& rng) {
  if (observations() < options_.init_samples) return space_.sample(rng);
  refit();
  const std::size_t n_cand = std::max<std::size_t>(8, options_.candidates);
  const Matrix cand = space_.sample_batch(n_cand, rng);
  const std::size_t iter = observations() + 1;
  const std::size_t dim = space_.dim();

  double best_util = -std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  const double incumbent = result_.best_y;
  // beta draws shared across the candidate set: one acquisition per iteration.
  double beta = options_.ucb_beta;
  if (options_.acquisition == AcquisitionKind::kGpUcb) {
    beta = gp_ucb_beta(iter, n_cand, options_.delta);
  } else if (options_.acquisition == AcquisitionKind::kCrgpUcb) {
    beta = crgp_ucb_beta(iter, options_.crgp_rho, options_.crgp_clip, rng);
  }
  // Score ScanTile::kSize normalized rows per predict_batch call; utilities
  // (and kThompson's normals) still go in candidate order, first max wins.
  Matrix tile(0, dim);
  for (std::size_t first = 0; first < n_cand; first += ScanTile::kSize) {
    const std::size_t size = std::min(ScanTile::kSize, n_cand - first);
    tile.resize(size, dim);
    for (std::size_t k = 0; k < size; ++k) {
      space_.normalize(cand.data() + (first + k) * dim, tile.data() + k * dim);
    }
    const std::vector<gp::Posterior> posts = surrogate_.predict_batch(tile);
    for (std::size_t k = 0; k < size; ++k) {
      const gp::Posterior& post = posts[k];
      double util = 0.0;
      switch (options_.acquisition) {
        case AcquisitionKind::kEi:
          util = expected_improvement(post.mean, post.std, incumbent, options_.xi);
          break;
        case AcquisitionKind::kPi:
          util = probability_of_improvement(post.mean, post.std, incumbent, options_.xi);
          break;
        case AcquisitionKind::kUcb:
        case AcquisitionKind::kGpUcb:
        case AcquisitionKind::kCrgpUcb:
          // Minimization: maximize the negated lower confidence bound.
          util = -lower_confidence_bound(post.mean, post.std, beta);
          break;
        case AcquisitionKind::kThompson:
          // Independent posterior draw per candidate (lightweight TS for GPs).
          util = -(post.mean + post.std * rng.normal());
          break;
      }
      if (util > best_util) {
        best_util = util;
        best_idx = first + k;
      }
    }
  }
  return cand.row(best_idx);
}

void GpBoMinimizer::tell(const Vec& x, double y) {
  if (x.size() != space_.dim()) throw std::invalid_argument("GpBoMinimizer::tell: dim mismatch");
  const Vec xn = space_.normalize(space_.clamp(x));
  Matrix grown(x_norm_.rows() + 1, space_.dim());
  for (std::size_t r = 0; r < x_norm_.rows(); ++r) grown.set_row(r, x_norm_.row(r));
  grown.set_row(x_norm_.rows(), xn);
  x_norm_ = std::move(grown);
  y_.push_back(y);
  dirty_ = true;

  if (result_.history.empty() || y < result_.best_y) {
    result_.best_y = y;
    result_.best_x = x;
  }
  result_.history.push_back({x, y});
}

GpBoResult GpBoMinimizer::minimize(const std::function<double(const Vec&)>& fn,
                                   std::size_t iters, Rng& rng) {
  for (std::size_t i = 0; i < iters; ++i) {
    const Vec x = ask(rng);
    tell(x, fn(x));
  }
  return result_;
}

}  // namespace atlas::bo
