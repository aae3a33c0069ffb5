#pragma once

#include "math/matrix.hpp"

namespace atlas::gp {

/// Stationary covariance families. The paper's online GP uses Matérn ν=2.5
/// (sklearn's `Matern(nu=2.5)`), "a generalization of the RBF kernel" (§7.3);
/// the others are provided for ablations and tests.
enum class KernelKind { kRbf, kMatern12, kMatern32, kMatern52 };

/// Isotropic kernel k(a,b) = variance * g(|a-b| / length_scale).
struct Kernel {
  KernelKind kind = KernelKind::kMatern52;
  double variance = 1.0;      ///< Signal variance (amplitude^2).
  double length_scale = 1.0;  ///< Isotropic length scale.

  /// Evaluate k(a, b).
  double operator()(const atlas::math::Vec& a, const atlas::math::Vec& b) const;

  /// Evaluate from a precomputed Euclidean distance r = |a-b|.
  double at_distance(double r) const;
};

/// Gram matrix K(X, X) (symmetric).
atlas::math::Matrix gram(const Kernel& k, const atlas::math::Matrix& x);

/// Cross-covariance vector k(X, x*) against all rows of X.
atlas::math::Vec cross(const Kernel& k, const atlas::math::Matrix& x, const atlas::math::Vec& xs);

/// The same for the x.cols() doubles at `xs`, written to out[i * stride]
/// for every row i of X (no allocation).
void cross(const Kernel& k, const atlas::math::Matrix& x, const double* xs, double* out,
           std::size_t stride);

}  // namespace atlas::gp
