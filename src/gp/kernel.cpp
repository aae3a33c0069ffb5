#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>

namespace atlas::gp {

using atlas::math::Matrix;
using atlas::math::Vec;

double Kernel::at_distance(double r) const {
  const double s = r / length_scale;
  switch (kind) {
    case KernelKind::kRbf:
      return variance * std::exp(-0.5 * s * s);
    case KernelKind::kMatern12:
      return variance * std::exp(-s);
    case KernelKind::kMatern32: {
      const double t = std::sqrt(3.0) * s;
      return variance * (1.0 + t) * std::exp(-t);
    }
    case KernelKind::kMatern52: {
      const double t = std::sqrt(5.0) * s;
      return variance * (1.0 + t + t * t / 3.0) * std::exp(-t);
    }
  }
  return 0.0;
}

double Kernel::operator()(const Vec& a, const Vec& b) const {
  return at_distance(std::sqrt(atlas::math::squared_distance(a, b)));
}

Matrix gram(const Kernel& k, const Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    g(i, i) = k.at_distance(0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const double r =
          std::sqrt(atlas::math::squared_distance(x.data() + i * d, x.data() + j * d, d));
      const double v = k.at_distance(r);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

Vec cross(const Kernel& k, const Matrix& x, const Vec& xs) {
  if (xs.size() != x.cols()) throw std::invalid_argument("cross: size mismatch");
  Vec out(x.rows());
  cross(k, x, xs.data(), out.data(), 1);
  return out;
}

void cross(const Kernel& k, const Matrix& x, const double* xs, double* out, std::size_t stride) {
  const std::size_t d = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i * stride] =
        k.at_distance(std::sqrt(atlas::math::squared_distance(x.data() + i * d, xs, d)));
  }
}

}  // namespace atlas::gp
