#pragma once

#include <cstddef>

#include "gp/kernel.hpp"
#include "math/matrix.hpp"
#include "math/rng.hpp"

namespace atlas::gp {

/// Posterior mean / standard deviation of the latent function at a point.
struct Posterior {
  double mean = 0.0;
  double std = 0.0;
};

/// Configuration mirroring the knobs the paper sets on sklearn's
/// GaussianProcessRegressor: Matérn ν=2.5 kernel and target normalization
/// ("values are normalized by removing the mean and scaling to
/// unit-variance", §7.3).
struct GpConfig {
  KernelKind kernel = KernelKind::kMatern52;
  double initial_length_scale = 1.0;  ///< Starting (or fixed) length scale.
  double initial_variance = 1.0;      ///< Starting (or fixed) signal variance.
  double noise_variance = 1e-4;  ///< Observation noise added to the Gram diagonal.
  bool normalize_y = true;
  bool optimize_hyperparams = true;
  std::size_t restarts = 8;          ///< Random restarts for hyperparameter search.
  double length_scale_min = 1e-2;    ///< Log-uniform search bounds.
  double length_scale_max = 1e2;
  double variance_min = 1e-3;
  double variance_max = 1e3;
  std::uint64_t hyper_seed = 17;     ///< Hyper-search is deterministic per fit.
};

/// Exact Gaussian-process regression with Cholesky factorization.
///
/// Used by Atlas Stage 3 to learn only the sim-to-real QoE difference G(ψ)
/// (paper Eq. 12) — the online sample count stays in the hundreds, where the
/// O(n^3) exact solve is trivially fast.
class GaussianProcess {
 public:
  explicit GaussianProcess(GpConfig config = {});

  /// Fit on rows of `x` and targets `y`. Optimizes (length_scale, variance)
  /// by maximizing the log marginal likelihood if configured, then
  /// factorizes. Refits from scratch each call.
  void fit(const atlas::math::Matrix& x, const atlas::math::Vec& y);

  /// Whether fit() has been called with at least one sample.
  bool fitted() const noexcept { return x_.rows() > 0; }
  std::size_t size() const noexcept { return x_.rows(); }

  /// Posterior at a point (prior if unfitted: mean 0 in normalized space,
  /// std = prior amplitude). The one-row case of predict_batch.
  Posterior predict(const atlas::math::Vec& xs) const;

  /// Posterior over the rows of `xs`, bit-identical to predicting each row
  /// on its own. One n x rows scratch buffer, so callers bound the rows
  /// (the acquisition scans pass one tile at a time).
  std::vector<Posterior> predict_batch(const atlas::math::Matrix& xs) const;

  /// Log marginal likelihood of the current fit (normalized-y space).
  double log_marginal_likelihood() const noexcept { return lml_; }

  /// Kernel after hyperparameter optimization.
  const Kernel& kernel() const noexcept { return kernel_; }

 private:
  double lml_for(const Kernel& k, const atlas::math::Matrix& x,
                 const atlas::math::Vec& y_norm) const;
  void factorize(const atlas::math::Matrix& x, const atlas::math::Vec& y_norm);

  GpConfig config_;
  Kernel kernel_;
  atlas::math::Matrix x_;
  atlas::math::Vec alpha_;  ///< K^{-1} y (normalized space).
  atlas::math::Matrix chol_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lml_ = 0.0;
};

}  // namespace atlas::gp
