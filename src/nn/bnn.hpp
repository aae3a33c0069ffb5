#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "nn/optim.hpp"

namespace atlas::nn {

/// Prior over BNN weights.
///  - kGaussianAnalytic: N(0, prior_sigma^2); the KL(q||p) term of Eq. 3 has a
///    closed form, giving lower-variance gradients (default).
///  - kScaleMixtureMc: Blundell et al.'s two-Gaussian scale mixture; the
///    complexity cost is estimated per Monte-Carlo sample exactly as in the
///    paper's Eq. 4 (log q(w|θ) − log P(w) − log P(Y|w)).
enum class BnnPrior { kGaussianAnalytic, kScaleMixtureMc };

/// Hyperparameters of the Bayesian neural network.
struct BnnConfig {
  std::vector<std::size_t> sizes;  ///< Layer widths incl. input/output, e.g. {9,64,64,1}.
  BnnPrior prior = BnnPrior::kGaussianAnalytic;
  double prior_sigma = 0.3;    ///< Std of the Gaussian prior.
  double mixture_pi = 0.5;     ///< Scale-mixture weight on the wide component.
  double mixture_sigma1 = 1.0; ///< Wide component std.
  double mixture_sigma2 = std::exp(-6.0);  ///< Narrow component std.
  double noise_sigma = 0.05;   ///< Gaussian likelihood std (observation noise).
  double kl_scale = 0.1;       ///< Weight of the complexity cost (per-dataset).
  double init_rho = -4.0;      ///< Initial rho; sigma = softplus(rho) ≈ 0.018.
};

/// A frozen draw w ~ q(w|θ) of the whole network: a deterministic MLP that can
/// be evaluated concurrently from many threads. This is the object parallel
/// Thompson sampling hands to each parallel query ("infer the BNN only once",
/// §4.2 of the paper).
///
/// Weights are stored input-major so the batched kernel (nn/dense_kernel.hpp)
/// vectorizes across a layer's outputs, at the widest lane count the CPU
/// runs. Every output is still summed as bias + w_0 h_0 + w_1 h_1 + ... in
/// input order, so predict_batch, predict and Bnn::predict_at_mean agree bit
/// for bit at every width (no reassociation; see the README's "batched
/// surrogate scoring" for the FMA caveat).
struct BnnSample {
  std::vector<atlas::math::Matrix> weights;  ///< One (in x out) matrix per layer.
  std::vector<atlas::math::Vec> biases;

  /// The one-row case of predict_batch.
  double predict(const atlas::math::Vec& x) const;
  /// One prediction per row of `x`.
  atlas::math::Vec predict_batch(const atlas::math::Matrix& x) const;
};

/// Mean/std pair from Monte-Carlo prediction.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};

/// Bayesian neural network trained with Bayes-by-Backprop (Blundell et al.
/// 2015): every weight carries a Gaussian variational posterior
/// q(w|θ) = N(mu, softplus(rho)^2) trained via the reparameterization trick.
///
/// Atlas uses the BNN as the scalable surrogate for Bayesian optimization in
/// Stage 1 (simulation-parameter search) and Stage 2 (offline configuration),
/// where Gaussian processes would hit their O(n^3) wall (§4.2).
class Bnn {
 public:
  Bnn(BnnConfig config, atlas::math::Rng& rng);

  const BnnConfig& config() const noexcept { return config_; }
  std::size_t input_dim() const noexcept;

  /// One minibatch step of Bayes-by-Backprop; returns the batch loss
  /// (mean NLL + scaled complexity cost).
  double train_batch(const atlas::math::Matrix& x, const atlas::math::Vec& y,
                     std::size_t dataset_size, Optimizer& opt, atlas::math::Rng& rng,
                     std::size_t mc_samples = 1);

  /// Full training loop: epochs x shuffled minibatches. Returns final epoch
  /// mean loss. `sched` may be nullptr.
  double train(const atlas::math::Matrix& x, const atlas::math::Vec& y, std::size_t epochs,
               std::size_t batch_size, Optimizer& opt, StepLr* sched, atlas::math::Rng& rng,
               std::size_t mc_samples = 1);

  /// Monte-Carlo predictive mean/std at a point (`mc` weight draws).
  MeanStd predict(const atlas::math::Vec& x, std::size_t mc, atlas::math::Rng& rng) const;

  /// Deterministic prediction using the posterior means of all weights. Reads
  /// them in place; to score many points, batch them through mean_sample().
  double predict_at_mean(const atlas::math::Vec& x) const;

  /// The posterior-mean network as a frozen sample: its predictions equal
  /// predict_at_mean bit for bit. A snapshot: later training does not move it.
  BnnSample mean_sample() const;

  /// Draw one frozen network w ~ q(w|θ).
  BnnSample thompson(atlas::math::Rng& rng) const;

  /// Current total complexity cost KL[q(w|θ) || P(w)] (analytic prior only).
  double kl_to_prior() const;

 private:
  struct Layer {
    atlas::math::Matrix w_mu, w_rho, gw_mu, gw_rho;
    atlas::math::Vec b_mu, b_rho, gb_mu, gb_rho;
    // Per-forward sample state.
    atlas::math::Matrix w, w_eps;
    atlas::math::Vec b, b_eps;
    atlas::math::Matrix cached_input;
    // Scratch for dL/d(sampled w).
    atlas::math::Matrix gw;
    atlas::math::Vec gb;
  };

  void sample_weights(atlas::math::Rng& rng);
  atlas::math::Matrix forward(const atlas::math::Matrix& x);
  void backward(const atlas::math::Matrix& dy);
  /// Route the accumulated dL/dw (likelihood path) into mu/rho gradients.
  void route_sample_grads();
  /// Add the complexity-cost gradients for the current sample.
  void add_prior_grads(double weight);
  void zero_grad();
  std::vector<ParamView> params();

  BnnConfig config_;
  std::vector<Layer> layers_;
  std::vector<atlas::math::Matrix> relu_masks_;
};

}  // namespace atlas::nn
