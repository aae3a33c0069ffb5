#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "math/matrix.hpp"

namespace atlas::bo {

/// One tile of an acquisition scan. A scan samples a tile's candidates in
/// candidate order (all of its RNG work happens here) straight into the
/// tile: point(k) holds candidate k's raw coordinates and row k of `inputs`
/// its surrogate input. It then scores the whole tile with one batched
/// surrogate call and offers the scores to an Argmin in candidate order.
/// A scan reuses one tile throughout, and the tile keeps its storage from
/// tile to tile, so sampling allocates nothing per candidate and the
/// scoring scratch is bounded by kSize candidates whatever the scan's size.
struct ScanTile {
  static constexpr std::size_t kSize = 256;

  math::Matrix inputs;

  ScanTile(std::size_t point_dim, std::size_t input_dim)
      : inputs(0, input_dim), point_dim_(point_dim) {}

  /// Calls fn(first) once per tile of a scan over `candidates`, with the
  /// tile sized for candidates [first, first + size()).
  template <typename Fn>
  void scan(std::size_t candidates, Fn&& fn) {
    for (std::size_t first = 0; first < candidates; first += kSize) {
      size_ = std::min(kSize, candidates - first);
      if (points_.size() < size_) points_.resize(size_, math::Vec(point_dim_));
      inputs.resize(size_, inputs.cols());
      fn(first);
    }
  }

  std::size_t size() const { return size_; }

  /// Candidate k's raw coordinates (point_dim doubles), written in place.
  math::Vec& point(std::size_t k) { return points_[k]; }
  /// Row k of `inputs`.
  double* input(std::size_t k) { return inputs.data() + k * inputs.cols(); }

 private:
  std::vector<math::Vec> points_;  ///< Grows to the largest tile; never shrinks.
  std::size_t point_dim_;
  std::size_t size_ = 0;
};

}  // namespace atlas::bo
