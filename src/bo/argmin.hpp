#pragma once

#include <cmath>
#include <stdexcept>

#include "math/matrix.hpp"

namespace atlas::bo {

/// Running argmin of an acquisition scan: the lowest-score candidate offered
/// so far. Maximizing scans offer the negated utility.
///
/// Insertion uses STRICT inequality, so among equal scores the first offered
/// candidate wins, and a NaN score is skipped. golden_stage_test pins the
/// candidates every stage's scans select.
class Argmin {
 public:
  /// Consider one candidate.
  void offer(const math::Vec& x, double score) {
    if (std::isnan(score)) return;
    if (empty_ || score < best_score_) {
      best_ = x;
      best_score_ = score;
      empty_ = false;
    }
  }

  bool empty() const { return empty_; }

  /// The lowest-score candidate. Throws std::out_of_range when nothing (or
  /// only NaN) was offered.
  const math::Vec& best() const {
    check();
    return best_;
  }
  double best_score() const {
    check();
    return best_score_;
  }

 private:
  void check() const {
    if (empty_) throw std::out_of_range("Argmin: nothing was offered");
  }

  math::Vec best_;
  double best_score_ = 0.0;
  bool empty_ = true;
};

}  // namespace atlas::bo
