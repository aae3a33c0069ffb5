#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "math/matrix.hpp"

namespace atlas::bo {

/// One tile of an acquisition scan. A scan samples a tile's candidates in
/// candidate order (all of its RNG work happens here), scores the whole tile
/// with one batched surrogate call, then offers the scores to an Argmin in
/// candidate order. Row k of `inputs` is the surrogate input of points[k].
/// A scan reuses one tile throughout, so its scoring scratch is bounded by
/// kSize candidates whatever the scan's size.
struct ScanTile {
  static constexpr std::size_t kSize = 256;

  std::vector<math::Vec> points;
  math::Matrix inputs;

  explicit ScanTile(std::size_t input_dim) : inputs(0, input_dim) {}

  /// Calls fn(first) once per tile of a scan over `candidates`, with the
  /// tile sized for candidates [first, first + size()).
  template <typename Fn>
  void scan(std::size_t candidates, Fn&& fn) {
    for (std::size_t first = 0; first < candidates; first += kSize) {
      const std::size_t count = std::min(kSize, candidates - first);
      points.resize(count);
      inputs.resize(count, inputs.cols());
      fn(first);
    }
  }

  std::size_t size() const { return points.size(); }
};

}  // namespace atlas::bo
