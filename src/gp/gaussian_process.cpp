#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/linalg.hpp"
#include "math/stats.hpp"

namespace atlas::gp {

using atlas::math::Matrix;
using atlas::math::Vec;

GaussianProcess::GaussianProcess(GpConfig config) : config_(config) {
  kernel_.kind = config_.kernel;
  kernel_.length_scale = config_.initial_length_scale;
  kernel_.variance = config_.initial_variance;
}

void GaussianProcess::fit(const Matrix& x, const Vec& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("GaussianProcess::fit: size mismatch");
  if (x.rows() == 0) throw std::invalid_argument("GaussianProcess::fit: empty dataset");
  x_ = x;

  // Normalize targets (sklearn's normalize_y).
  Vec y_norm = y;
  if (config_.normalize_y) {
    const auto s = atlas::math::summarize(y);
    y_mean_ = s.mean;
    y_std_ = s.stddev > 1e-12 ? s.stddev : 1.0;
  } else {
    y_mean_ = 0.0;
    y_std_ = 1.0;
  }
  for (auto& v : y_norm) v = (v - y_mean_) / y_std_;

  if (config_.optimize_hyperparams && x.rows() >= 3) {
    // Multi-start log-uniform random search followed by a shrinking
    // coordinate refinement — derivative-free, deterministic per seed.
    atlas::math::Rng rng(config_.hyper_seed);
    Kernel best = kernel_;
    // Heuristic initialization: median pairwise distance.
    {
      Vec dists;
      const std::size_t cap = std::min<std::size_t>(x.rows(), 64);
      for (std::size_t i = 0; i < cap; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          dists.push_back(std::sqrt(atlas::math::squared_distance(x.row(i), x.row(j))));
        }
      }
      if (!dists.empty()) {
        const double med = atlas::math::quantile(dists, 0.5);
        if (med > 0.0) best.length_scale = std::clamp(med, config_.length_scale_min,
                                                      config_.length_scale_max);
      }
    }
    best.variance = 1.0;
    double best_lml = lml_for(best, x, y_norm);
    for (std::size_t r = 0; r < config_.restarts; ++r) {
      Kernel cand = kernel_;
      cand.length_scale = std::exp(rng.uniform(std::log(config_.length_scale_min),
                                               std::log(config_.length_scale_max)));
      cand.variance =
          std::exp(rng.uniform(std::log(config_.variance_min), std::log(config_.variance_max)));
      const double lml = lml_for(cand, x, y_norm);
      if (lml > best_lml) {
        best_lml = lml;
        best = cand;
      }
    }
    // Coordinate refinement in log-space.
    double step = 0.5;
    for (int round = 0; round < 12; ++round) {
      bool improved = false;
      for (int coord = 0; coord < 2; ++coord) {
        for (double dir : {+1.0, -1.0}) {
          Kernel cand = best;
          if (coord == 0) {
            cand.length_scale = std::clamp(best.length_scale * std::exp(dir * step),
                                           config_.length_scale_min, config_.length_scale_max);
          } else {
            cand.variance = std::clamp(best.variance * std::exp(dir * step),
                                       config_.variance_min, config_.variance_max);
          }
          const double lml = lml_for(cand, x, y_norm);
          if (lml > best_lml) {
            best_lml = lml;
            best = cand;
            improved = true;
          }
        }
      }
      if (!improved) step *= 0.5;
      if (step < 1e-3) break;
    }
    kernel_ = best;
  }
  factorize(x, y_norm);
}

double GaussianProcess::lml_for(const Kernel& k, const Matrix& x, const Vec& y_norm) const {
  Matrix gram_matrix = gram(k, x);
  for (std::size_t i = 0; i < gram_matrix.rows(); ++i) {
    gram_matrix(i, i) += config_.noise_variance;
  }
  Matrix chol;
  try {
    chol = atlas::math::cholesky_jittered(gram_matrix);
  } catch (const std::runtime_error&) {
    return -std::numeric_limits<double>::infinity();
  }
  const Vec alpha = atlas::math::cholesky_solve(chol, y_norm);
  const double fit_term = -0.5 * atlas::math::dot(y_norm, alpha);
  const double det_term = -0.5 * atlas::math::log_det_from_cholesky(chol);
  const double norm_term =
      -0.5 * static_cast<double>(x.rows()) * std::log(2.0 * 3.14159265358979323846);
  return fit_term + det_term + norm_term;
}

void GaussianProcess::factorize(const Matrix& x, const Vec& y_norm) {
  Matrix gram_matrix = gram(kernel_, x);
  for (std::size_t i = 0; i < gram_matrix.rows(); ++i) {
    gram_matrix(i, i) += config_.noise_variance;
  }
  chol_ = atlas::math::cholesky_jittered(gram_matrix);
  alpha_ = atlas::math::cholesky_solve(chol_, y_norm);
  lml_ = -0.5 * atlas::math::dot(y_norm, alpha_) -
         0.5 * atlas::math::log_det_from_cholesky(chol_) -
         0.5 * static_cast<double>(x.rows()) * std::log(2.0 * 3.14159265358979323846);
}

Posterior GaussianProcess::predict(const Vec& xs) const {
  Matrix one(1, xs.size());
  one.set_row(0, xs);
  return predict_batch(one).front();
}

std::vector<Posterior> GaussianProcess::predict_batch(const Matrix& xs) const {
  const std::size_t m = xs.rows();
  std::vector<Posterior> out(m);
  if (!fitted()) {
    // Prior: zero mean, amplitude std (denormalization is identity here).
    for (auto& p : out) {
      p.mean = y_mean_;
      p.std = std::sqrt(kernel_.variance) * y_std_;
    }
    return out;
  }
  if (xs.cols() != x_.cols()) {
    throw std::invalid_argument("GaussianProcess::predict_batch: dimension mismatch");
  }
  // The scratch holds k(X, xs_j) as column j. Row i is then overwritten by
  // v_i = (L^-1 k_j)_i for every candidate at once, so the forward
  // substitution vectorizes across candidates while each candidate's sums
  // keep dot()'s and solve_lower()'s order.
  const std::size_t n = x_.rows();
  Matrix ks(n, m);
  for (std::size_t j = 0; j < m; ++j) {
    cross(kernel_, x_, xs.data() + j * xs.cols(), ks.data() + j, m);
  }
  // Posterior::mean and ::std accumulate k.alpha and v.v until the end.
  for (std::size_t i = 0; i < n; ++i) {
    double* vi = ks.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) out[j].mean += vi[j] * alpha_[i];
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = chol_(i, k);
      const double* vk = ks.data() + k * m;
      for (std::size_t j = 0; j < m; ++j) vi[j] -= lik * vk[j];
    }
    const double lii = chol_(i, i);
    for (std::size_t j = 0; j < m; ++j) {
      vi[j] /= lii;
      out[j].std += vi[j] * vi[j];
    }
  }
  const double prior_var = kernel_.at_distance(0.0);
  for (auto& p : out) {
    const double var_norm = std::max(0.0, prior_var - p.std);
    p.mean = p.mean * y_std_ + y_mean_;
    p.std = std::sqrt(var_norm) * y_std_;
  }
  return out;
}

}  // namespace atlas::gp
