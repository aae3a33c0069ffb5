#include "bo/space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace atlas::bo {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

BoxSpace::BoxSpace(std::vector<std::string> names, Vec lo, Vec hi)
    : names_(std::move(names)), lo_(std::move(lo)), hi_(std::move(hi)) {
  if (lo_.size() != hi_.size() || names_.size() != lo_.size()) {
    throw std::invalid_argument("BoxSpace: inconsistent sizes");
  }
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (hi_[i] <= lo_[i]) throw std::invalid_argument("BoxSpace: empty dimension " + names_[i]);
  }
}

Vec BoxSpace::clamp(Vec x) const {
  if (x.size() != dim()) throw std::invalid_argument("BoxSpace::clamp: dim mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::clamp(x[i], lo_[i], hi_[i]);
  return x;
}

Vec BoxSpace::normalize(const Vec& x) const {
  if (x.size() != dim()) throw std::invalid_argument("BoxSpace::normalize: dim mismatch");
  Vec u(x.size());
  normalize(x.data(), u.data());
  return u;
}

void BoxSpace::normalize(const double* x, double* u) const {
  for (std::size_t i = 0; i < dim(); ++i) u[i] = (x[i] - lo_[i]) / (hi_[i] - lo_[i]);
}

Vec BoxSpace::denormalize(const Vec& u) const {
  if (u.size() != dim()) throw std::invalid_argument("BoxSpace::denormalize: dim mismatch");
  Vec x(u.size());
  denormalize(u.data(), x.data());
  return x;
}

void BoxSpace::denormalize(const double* u, double* x) const {
  for (std::size_t i = 0; i < dim(); ++i) x[i] = lo_[i] + u[i] * (hi_[i] - lo_[i]);
}

Vec BoxSpace::sample(Rng& rng) const {
  Vec x(dim());
  sample(rng, x.data());
  return x;
}

void BoxSpace::sample(Rng& rng, double* x) const {
  for (std::size_t i = 0; i < dim(); ++i) x[i] = rng.uniform(lo_[i], hi_[i]);
}

Matrix BoxSpace::sample_batch(std::size_t n, Rng& rng) const {
  Matrix out(n, dim());
  for (std::size_t i = 0; i < n; ++i) sample(rng, out.data() + i * dim());
  return out;
}

BoxSpace::Ball BoxSpace::ball(const Vec& center, double radius) const {
  return Ball{normalize(center), normalize(clamp(center)), radius};
}

Vec BoxSpace::sample_in_ball(const Vec& center, double radius, Rng& rng, int max_tries) const {
  Vec x(dim());
  Vec u(dim());
  sample_in_ball(ball(center, radius), rng, x.data(), u.data(), max_tries);
  return x;
}

void BoxSpace::sample_in_ball(const Ball& ball, Rng& rng, double* x, double* u,
                              int max_tries) const {
  for (int t = 0; t < max_tries; ++t) {
    sample(rng, x);
    normalize(x, u);
    if (normalized_distance(u, ball.center.data()) <= ball.radius) return;
  }
  // Fall back: random direction from the center, scaled inside the ball. The
  // direction is drawn into u and the normalized point built in x.
  double norm = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) {
    u[i] = rng.normal();
    norm += u[i] * u[i];
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  const double scale = ball.radius * std::sqrt(static_cast<double>(dim())) * rng.uniform();
  for (std::size_t i = 0; i < dim(); ++i) {
    x[i] = std::clamp(ball.fallback[i] + u[i] / norm * scale, 0.0, 1.0);
  }
  denormalize(x, x);
  normalize(x, u);
}

double BoxSpace::distance(const Vec& a, const Vec& b) const {
  return normalized_distance(normalize(a).data(), normalize(b).data());
}

double BoxSpace::normalized_distance(const double* ua, const double* ub) const {
  return std::sqrt(atlas::math::squared_distance(ua, ub, dim()) / static_cast<double>(dim()));
}

}  // namespace atlas::bo
