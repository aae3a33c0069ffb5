#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "math/matrix.hpp"

namespace atlas::bo {

/// Ranked tracker of the K lowest-score candidates an acquisition scan has
/// seen so far. Built for the speculative episode prefetcher: the scan that
/// used to keep only the running argmin now keeps a short ranked list, so a
/// SpeculationPlanner can launch episodes for the likely winners while the
/// scan is still running.
///
/// Bit-identity contract: insertion uses STRICT inequality, so among equal
/// scores the earliest-offered candidate stays ranked first. best() is
/// therefore exactly the candidate a plain `if (score < best)` running-argmin
/// loop would have selected — pinned by golden_stage_test, which requires the
/// TopK-refactored scans to reproduce the historical argmin/argmax choices
/// bit-for-bit. Maximizing scans offer the negated utility. A NaN score is
/// skipped, as that argmin never picked one either.
class TopK {
 public:
  struct Entry {
    math::Vec x;
    double score = 0.0;
  };

  explicit TopK(std::size_t k) : k_(k == 0 ? 1 : k) {}

  /// Consider one candidate. O(K) — K is tiny (prefetch depth).
  void offer(const math::Vec& x, double score) {
    if (std::isnan(score)) return;
    if (ranked_.size() == k_ && !(score < ranked_.back().score)) return;
    // First slot whose score the newcomer strictly beats: equal scores keep
    // their earlier-offered position (first-wins, matching the old argmin).
    std::size_t pos = ranked_.size();
    while (pos > 0 && score < ranked_[pos - 1].score) --pos;
    ranked_.insert(ranked_.begin() + static_cast<std::ptrdiff_t>(pos), Entry{x, score});
    if (ranked_.size() > k_) ranked_.pop_back();
  }

  bool empty() const { return ranked_.empty(); }
  std::size_t size() const { return ranked_.size(); }
  std::size_t capacity() const { return k_; }

  /// The running argmin (identical to the pre-TopK scan result). Throws
  /// std::out_of_range when nothing (or only NaN) was offered.
  const math::Vec& best() const { return front().x; }
  double best_score() const { return front().score; }

  /// All tracked candidates, best first.
  const std::vector<Entry>& ranked() const { return ranked_; }

 private:
  const Entry& front() const {
    if (ranked_.empty()) throw std::out_of_range("TopK: empty ranking");
    return ranked_.front();
  }

  std::size_t k_;
  std::vector<Entry> ranked_;  ///< Ascending score, at most k_ entries.
};

}  // namespace atlas::bo
