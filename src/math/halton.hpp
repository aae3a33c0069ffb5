#pragma once

#include <cstdint>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"

namespace atlas::math {

/// Scrambled Halton low-discrepancy sequence in [0,1)^d.
///
/// The Thompson-sampling stages score "tens of thousands of randomly sampled"
/// candidates (paper §4.2); a low-discrepancy stream covers the box more
/// evenly than i.i.d. uniforms at the same count, which measurably tightens
/// the argmin of the acquisition (see bench_ablation_design_choices). Digit
/// scrambling (random permutation per base, Owen-style) removes the raw
/// Halton sequence's correlation artifacts in higher dimensions.
class HaltonSequence {
 public:
  /// `dim` up to 16 (first 16 primes as bases); `rng` seeds the scrambling.
  HaltonSequence(std::size_t dim, Rng& rng);

  std::size_t dim() const noexcept { return permutations_.size(); }

  /// Next point in [0,1)^d.
  Vec next();
  /// The same, written to out (dim() doubles).
  void next(double* out);

  /// Generate `n` points as matrix rows.
  Matrix batch(std::size_t n);

 private:
  double radical_inverse(std::size_t dim_index, std::uint64_t index) const;

  std::vector<std::uint32_t> bases_;
  std::vector<std::vector<std::uint32_t>> permutations_;  ///< One per dimension.
  std::uint64_t index_ = 1;  ///< Skip index 0 (the all-zeros point).
};

}  // namespace atlas::math
