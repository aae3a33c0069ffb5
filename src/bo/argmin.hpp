#pragma once

#include <cmath>
#include <cstddef>
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

/// Argmin's rule over candidate indices, for scans whose candidates stay in
/// flat storage: the first index offered with the lowest score, NaN scores
/// skipped.
class ArgminIndex {
 public:
  void offer(std::size_t index, double score) {
    if (std::isnan(score)) return;
    if (empty_ || score < best_score_) {
      best_ = index;
      best_score_ = score;
      empty_ = false;
    }
  }

  /// The lowest-score index. Throws std::out_of_range like Argmin::best().
  std::size_t best() const {
    if (empty_) throw std::out_of_range("Argmin: nothing was offered");
    return best_;
  }

 private:
  std::size_t best_ = 0;
  double best_score_ = 0.0;
  bool empty_ = true;
};

}  // namespace atlas::bo
