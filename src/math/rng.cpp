#include "math/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace atlas::math {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the current state with the salt through SplitMix64 so children with
  // different salts are decorrelated even for adjacent salt values.
  std::uint64_t sm = state_[0] ^ (salt * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  return Rng(splitmix64(sm));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::truncated_normal(double mean, double stddev, double lo, double hi) {
  if (lo >= hi) throw std::invalid_argument("truncated_normal: empty interval");
  // Rejection is fine for the mild truncations we use (compute times,
  // frame sizes); fall back to clamping if the interval is far in the tail.
  for (int i = 0; i < 256; ++i) {
    const double x = normal(mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  const double x = normal(mean, stddev);
  return x < lo ? lo : (x > hi ? hi : x);
}

double Rng::lognormal(double mu_log, double sigma_log) {
  return std::exp(normal(mu_log, sigma_log));
}

double Rng::exponential(double mean) {
  // Inverse CDF; guard against log(0).
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::gamma(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) throw std::invalid_argument("gamma: parameters must be > 0");
  if (shape < 1.0) {
    // Boosting trick: Gamma(k) = Gamma(k+1) * U^{1/k}.
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace atlas::math
