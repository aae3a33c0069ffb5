#include "math/halton.hpp"

#include <stdexcept>

namespace atlas::math {

namespace {
constexpr std::uint32_t kPrimes[16] = {2,  3,  5,  7,  11, 13, 17, 19,
                                       23, 29, 31, 37, 41, 43, 47, 53};
}  // namespace

HaltonSequence::HaltonSequence(std::size_t dim, Rng& rng) {
  if (dim == 0 || dim > 16) {
    throw std::invalid_argument("HaltonSequence: dim must be in [1, 16]");
  }
  bases_.assign(kPrimes, kPrimes + dim);
  permutations_.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const std::uint32_t base = bases_[d];
    // Random permutation of digits 0..base-1 with 0 fixed (keeps the
    // sequence's stratification anchored at the origin).
    std::vector<std::uint32_t> perm(base);
    for (std::uint32_t i = 0; i < base; ++i) perm[i] = i;
    for (std::uint32_t i = base - 1; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(rng.uniform_int(1, i));
      std::swap(perm[i], perm[j]);
    }
    permutations_[d] = std::move(perm);
  }
}

double HaltonSequence::radical_inverse(std::size_t dim_index, std::uint64_t index) const {
  const std::uint32_t base = bases_[dim_index];
  const auto& perm = permutations_[dim_index];
  double inv_base = 1.0 / static_cast<double>(base);
  double factor = inv_base;
  double value = 0.0;
  while (index > 0) {
    const auto digit = static_cast<std::uint32_t>(index % base);
    value += static_cast<double>(perm[digit]) * factor;
    index /= base;
    factor *= inv_base;
  }
  return value;
}

Vec HaltonSequence::next() {
  Vec out(dim());
  next(out.data());
  return out;
}

void HaltonSequence::next(double* out) {
  for (std::size_t d = 0; d < dim(); ++d) out[d] = radical_inverse(d, index_);
  ++index_;
}

Matrix HaltonSequence::batch(std::size_t n) {
  Matrix out(n, dim());
  for (std::size_t i = 0; i < n; ++i) next(out.data() + i * dim());
  return out;
}

}  // namespace atlas::math
