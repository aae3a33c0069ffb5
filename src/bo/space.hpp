#pragma once

#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"

namespace atlas::bo {

/// Axis-aligned box of named continuous parameters, the shared search-space
/// abstraction for Table 2 (configuration actions) and Table 3 (simulation
/// parameters).
///
/// Surrogates always see *normalized* coordinates in [0,1]^d: both the BNN
/// and the GP are scale-sensitive, and the raw ranges span 3 orders of
/// magnitude (PRBs vs CPU ratio).
class BoxSpace {
 public:
  BoxSpace() = default;
  BoxSpace(std::vector<std::string> names, atlas::math::Vec lo, atlas::math::Vec hi);

  std::size_t dim() const noexcept { return lo_.size(); }
  const std::vector<std::string>& names() const noexcept { return names_; }
  const atlas::math::Vec& lower() const noexcept { return lo_; }
  const atlas::math::Vec& upper() const noexcept { return hi_; }

  /// Clamp a raw point into the box.
  atlas::math::Vec clamp(atlas::math::Vec x) const;
  /// Map raw -> [0,1]^d.
  atlas::math::Vec normalize(const atlas::math::Vec& x) const;
  /// Map [0,1]^d -> raw.
  atlas::math::Vec denormalize(const atlas::math::Vec& u) const;

  /// Uniform raw sample.
  atlas::math::Vec sample(atlas::math::Rng& rng) const;
  /// `n` uniform raw samples as matrix rows.
  atlas::math::Matrix sample_batch(std::size_t n, atlas::math::Rng& rng) const;

  /// Uniform raw sample restricted to the L2 ball |normalize(x)-normalize(c)| <= radius
  /// (rejection; used for the Stage-1 constraint Eq. 2). Falls back to the
  /// nearest boundary point after `max_tries`.
  atlas::math::Vec sample_in_ball(const atlas::math::Vec& center, double radius,
                                  atlas::math::Rng& rng, int max_tries = 64) const;

  /// Range-normalized L2 distance divided by sqrt(d): the "parameter
  /// distance" |x - x_hat|_2 of Eq. 2 in comparable units. Normalizing each
  /// range keeps the widest-ranged parameter from dominating, and sqrt(d)
  /// keeps the distance in [0, 1] for any dimension, so Eq. 2's radius H and
  /// weight alpha read the same whatever the parameter set.
  double distance(const atlas::math::Vec& a, const atlas::math::Vec& b) const;

  // In-place forms, for acquisition scans that write each candidate straight
  // into reused rows. Each pointer addresses dim() doubles. The Vec forms
  // above wrap these, so both compute the same bits.

  /// normalize(), reading x and writing u.
  void normalize(const double* x, double* u) const;
  /// denormalize(), reading u and writing x (which may be u itself).
  void denormalize(const double* u, double* x) const;
  /// sample(), writing x; the same draws in the same order.
  void sample(atlas::math::Rng& rng, double* x) const;
  /// distance() between two points given by their normalized coordinates.
  double normalized_distance(const double* ua, const double* ub) const;

  /// The ball of sample_in_ball(center, radius), normalized once.
  struct Ball {
    atlas::math::Vec center;    ///< normalize(center), what the rejection test measures from
    atlas::math::Vec fallback;  ///< normalize(clamp(center)), where the fallback starts
    double radius = 0.0;
  };
  Ball ball(const atlas::math::Vec& center, double radius) const;
  /// sample_in_ball() with the same rejection count and fallback draws,
  /// writing the raw point to x and normalize(x) to u.
  void sample_in_ball(const Ball& ball, atlas::math::Rng& rng, double* x, double* u,
                      int max_tries = 64) const;

 private:
  std::vector<std::string> names_;
  atlas::math::Vec lo_, hi_;
};

}  // namespace atlas::bo
