#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "math/matrix.hpp"

namespace atlas::math {

/// Deterministic pseudo-random generator with explicit distribution
/// implementations (polar-method normals, Marsaglia–Tsang gammas) so results
/// are reproducible across standard libraries and platforms — std::*_distribution
/// is implementation-defined and would make golden tests brittle.
///
/// Underlying engine: xoshiro256**, seeded via SplitMix64 fan-out. Each
/// simulator episode owns its own Rng (see Rng::fork), which keeps parallel
/// Thompson-sampling queries deterministic regardless of thread scheduling.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream; deterministic in (parent seed, salt).
  Rng fork(std::uint64_t salt) const;

  // The raw generator and the uniform/bernoulli draws are inline: the
  // episode engine draws every TTI (fading, block errors), and an
  // out-of-line call per draw is measurable at millions of TTIs per second.

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    // xoshiro256** by Blackman & Vigna (public domain reference construction).
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via the polar (Marsaglia) method. Inline: the fading
  /// process draws one per UE per TTI on the real-network profile.
  double normal() {
    // Polar method: draw pairs in the unit disc; cache nothing (a spare-value
    // cache would halve the draws but make draw order depend on history).
    for (;;) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      if (s > 0.0 && s < 1.0) {
        return u * std::sqrt(-2.0 * std::log(s) / s);
      }
    }
  }
  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  /// Normal truncated to [lo, hi] by rejection (resamples; lo < hi required).
  double truncated_normal(double mean, double stddev, double lo, double hi);
  /// Lognormal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);
  /// Exponential with the given mean.
  double exponential(double mean);
  /// Gamma(shape k, scale theta) via Marsaglia–Tsang (with the k<1 boost).
  double gamma(double shape, double scale);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace atlas::math
