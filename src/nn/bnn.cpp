#include "nn/bnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/dense_kernel.hpp"
#include "nn/mlp.hpp"

namespace atlas::nn {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

namespace {

double softplus(double x) { return x > 30.0 ? x : std::log1p(std::exp(x)); }
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double log_normal_pdf(double x, double mu, double sigma) {
  const double z = (x - mu) / sigma;
  return -0.5 * z * z - std::log(sigma) - 0.918938533204672742;  // log(sqrt(2*pi))
}

}  // namespace

double BnnSample::predict(const Vec& x) const {
  double y = 0.0;
  dense_kernel::predict_rows(dense_kernel::dispatched_lanes(), *this, x.data(), 1, x.size(), &y);
  return y;
}

Vec BnnSample::predict_batch(const Matrix& x) const {
  Vec out(x.rows());
  dense_kernel::predict_rows(dense_kernel::dispatched_lanes(), *this, x.data(), x.rows(),
                             x.cols(), out.data());
  return out;
}

Bnn::Bnn(BnnConfig config, Rng& rng) : config_(std::move(config)) {
  if (config_.sizes.size() < 2) throw std::invalid_argument("Bnn: need >= 2 layer sizes");
  if (config_.sizes.back() != 1) throw std::invalid_argument("Bnn: output dim must be 1");
  layers_.resize(config_.sizes.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t in = config_.sizes[l];
    const std::size_t out = config_.sizes[l + 1];
    Layer& layer = layers_[l];
    layer.w_mu = Matrix(out, in);
    layer.w_rho = Matrix(out, in, config_.init_rho);
    layer.gw_mu = Matrix(out, in);
    layer.gw_rho = Matrix(out, in);
    layer.b_mu = Vec(out, 0.0);
    layer.b_rho = Vec(out, config_.init_rho);
    layer.gb_mu = Vec(out, 0.0);
    layer.gb_rho = Vec(out, 0.0);
    layer.gw = Matrix(out, in);
    layer.gb = Vec(out, 0.0);
    const double scale = init_scale(in);
    for (std::size_t r = 0; r < out; ++r) {
      for (std::size_t c = 0; c < in; ++c) layer.w_mu(r, c) = rng.normal(0.0, scale);
    }
  }
  relu_masks_.resize(layers_.size());
}

std::size_t Bnn::input_dim() const noexcept { return config_.sizes.front(); }

void Bnn::sample_weights(Rng& rng) {
  for (auto& layer : layers_) {
    const std::size_t out = layer.w_mu.rows();
    const std::size_t in = layer.w_mu.cols();
    layer.w = Matrix(out, in);
    layer.w_eps = Matrix(out, in);
    layer.b = Vec(out);
    layer.b_eps = Vec(out);
    for (std::size_t r = 0; r < out; ++r) {
      for (std::size_t c = 0; c < in; ++c) {
        const double eps = rng.normal();
        layer.w_eps(r, c) = eps;
        layer.w(r, c) = layer.w_mu(r, c) + softplus(layer.w_rho(r, c)) * eps;
      }
      const double eps = rng.normal();
      layer.b_eps[r] = eps;
      layer.b[r] = layer.b_mu[r] + softplus(layer.b_rho[r]) * eps;
    }
  }
}

Matrix Bnn::forward(const Matrix& x) {
  Matrix h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    layer.cached_input = h;
    Matrix y(h.rows(), layer.w.rows());
    for (std::size_t n = 0; n < h.rows(); ++n) {
      const double* hrow = h.data() + n * h.cols();
      double* yrow = y.data() + n * y.cols();
      for (std::size_t o = 0; o < layer.w.rows(); ++o) {
        const double* wrow = layer.w.data() + o * layer.w.cols();
        double acc = layer.b[o];
        for (std::size_t i = 0; i < layer.w.cols(); ++i) acc += wrow[i] * hrow[i];
        yrow[o] = acc;
      }
    }
    if (l + 1 < layers_.size()) {
      Matrix mask(y.rows(), y.cols());
      for (std::size_t i = 0; i < y.rows(); ++i) {
        for (std::size_t j = 0; j < y.cols(); ++j) {
          const bool on = y(i, j) > 0.0;
          mask(i, j) = on ? 1.0 : 0.0;
          if (!on) y(i, j) = 0.0;
        }
      }
      relu_masks_[l] = std::move(mask);
    }
    h = std::move(y);
  }
  return h;
}

void Bnn::backward(const Matrix& dy) {
  Matrix grad = dy;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    if (li + 1 < layers_.size()) {
      const Matrix& mask = relu_masks_[li];
      for (std::size_t i = 0; i < grad.rows(); ++i) {
        for (std::size_t j = 0; j < grad.cols(); ++j) grad(i, j) *= mask(i, j);
      }
    }
    Layer& layer = layers_[li];
    const Matrix& x = layer.cached_input;
    // Accumulate dL/dw_sample and dL/db_sample; compute dL/dx.
    for (std::size_t n = 0; n < grad.rows(); ++n) {
      const double* grow = grad.data() + n * grad.cols();
      const double* xrow = x.data() + n * x.cols();
      for (std::size_t o = 0; o < grad.cols(); ++o) {
        const double g = grow[o];
        if (g == 0.0) continue;
        layer.gb[o] += g;
        double* gwrow = layer.gw.data() + o * layer.gw.cols();
        for (std::size_t i = 0; i < x.cols(); ++i) gwrow[i] += g * xrow[i];
      }
    }
    Matrix dx(x.rows(), x.cols(), 0.0);
    for (std::size_t n = 0; n < grad.rows(); ++n) {
      const double* grow = grad.data() + n * grad.cols();
      double* dxrow = dx.data() + n * dx.cols();
      for (std::size_t o = 0; o < grad.cols(); ++o) {
        const double g = grow[o];
        if (g == 0.0) continue;
        const double* wrow = layer.w.data() + o * layer.w.cols();
        for (std::size_t i = 0; i < dx.cols(); ++i) dxrow[i] += g * wrow[i];
      }
    }
    grad = std::move(dx);
  }
}

void Bnn::route_sample_grads() {
  // Reparameterization: w = mu + softplus(rho) * eps, so
  // dL/dmu += dL/dw and dL/drho += dL/dw * eps * sigmoid(rho).
  for (auto& layer : layers_) {
    for (std::size_t r = 0; r < layer.w_mu.rows(); ++r) {
      for (std::size_t c = 0; c < layer.w_mu.cols(); ++c) {
        const double g = layer.gw(r, c);
        layer.gw_mu(r, c) += g;
        layer.gw_rho(r, c) += g * layer.w_eps(r, c) * sigmoid(layer.w_rho(r, c));
      }
      const double g = layer.gb[r];
      layer.gb_mu[r] += g;
      layer.gb_rho[r] += g * layer.b_eps[r] * sigmoid(layer.b_rho[r]);
    }
    // Consume the scratch gradients.
    layer.gw *= 0.0;
    for (auto& v : layer.gb) v = 0.0;
  }
}

void Bnn::add_prior_grads(double weight) {
  if (weight == 0.0) return;
  const double sp2 = config_.prior_sigma * config_.prior_sigma;
  auto add_analytic = [&](double mu, double rho, double& gmu, double& grho) {
    const double sigma = softplus(rho);
    gmu += weight * mu / sp2;
    grho += weight * (-1.0 / sigma + sigma / sp2) * sigmoid(rho);
  };
  auto add_mixture = [&](double mu, double rho, double w_sampled, double eps, double& gmu,
                         double& grho) {
    const double sigma = softplus(rho);
    // Responsibility-weighted gradient of log P(w) for the scale mixture.
    const double l1 = log_normal_pdf(w_sampled, 0.0, config_.mixture_sigma1);
    const double l2 = log_normal_pdf(w_sampled, 0.0, config_.mixture_sigma2);
    const double m = std::max(l1, l2);
    const double p1 = config_.mixture_pi * std::exp(l1 - m);
    const double p2 = (1.0 - config_.mixture_pi) * std::exp(l2 - m);
    const double r1 = p1 / (p1 + p2);
    const double dlogp_dw = -w_sampled * (r1 / (config_.mixture_sigma1 * config_.mixture_sigma1) +
                                          (1.0 - r1) /
                                              (config_.mixture_sigma2 * config_.mixture_sigma2));
    // f = log q(w|theta) - log P(w). Gradients per Bayes-by-Backprop:
    //   d f / d mu  = -dlogp/dw            (the log q terms cancel)
    //   d f / d rho = [(-(w-mu)/s^2 - dlogp/dw) * eps + (-1/s + (w-mu)^2/s^3)] * sigmoid(rho)
    const double dev = w_sampled - mu;
    gmu += weight * (-dlogp_dw);
    grho += weight *
            ((-dev / (sigma * sigma) - dlogp_dw) * eps + (-1.0 / sigma + dev * dev / (sigma * sigma * sigma))) *
            sigmoid(rho);
  };
  for (auto& layer : layers_) {
    for (std::size_t r = 0; r < layer.w_mu.rows(); ++r) {
      for (std::size_t c = 0; c < layer.w_mu.cols(); ++c) {
        if (config_.prior == BnnPrior::kGaussianAnalytic) {
          add_analytic(layer.w_mu(r, c), layer.w_rho(r, c), layer.gw_mu(r, c),
                       layer.gw_rho(r, c));
        } else {
          add_mixture(layer.w_mu(r, c), layer.w_rho(r, c), layer.w(r, c), layer.w_eps(r, c),
                      layer.gw_mu(r, c), layer.gw_rho(r, c));
        }
      }
      if (config_.prior == BnnPrior::kGaussianAnalytic) {
        add_analytic(layer.b_mu[r], layer.b_rho[r], layer.gb_mu[r], layer.gb_rho[r]);
      } else {
        add_mixture(layer.b_mu[r], layer.b_rho[r], layer.b[r], layer.b_eps[r], layer.gb_mu[r],
                    layer.gb_rho[r]);
      }
    }
  }
}

void Bnn::zero_grad() {
  for (auto& layer : layers_) {
    layer.gw_mu *= 0.0;
    layer.gw_rho *= 0.0;
    for (auto& v : layer.gb_mu) v = 0.0;
    for (auto& v : layer.gb_rho) v = 0.0;
    layer.gw *= 0.0;
    for (auto& v : layer.gb) v = 0.0;
  }
}

std::vector<ParamView> Bnn::params() {
  std::vector<ParamView> out;
  for (auto& layer : layers_) {
    out.push_back({layer.w_mu.data(), layer.gw_mu.data(), layer.w_mu.rows() * layer.w_mu.cols()});
    out.push_back(
        {layer.w_rho.data(), layer.gw_rho.data(), layer.w_rho.rows() * layer.w_rho.cols()});
    out.push_back({layer.b_mu.data(), layer.gb_mu.data(), layer.b_mu.size()});
    out.push_back({layer.b_rho.data(), layer.gb_rho.data(), layer.b_rho.size()});
  }
  return out;
}

double Bnn::kl_to_prior() const {
  if (config_.prior != BnnPrior::kGaussianAnalytic) {
    throw std::logic_error("kl_to_prior: analytic KL only defined for the Gaussian prior");
  }
  const double sp = config_.prior_sigma;
  double acc = 0.0;
  auto add = [&](double mu, double rho) {
    const double sigma = softplus(rho);
    acc += std::log(sp / sigma) + (sigma * sigma + mu * mu) / (2.0 * sp * sp) - 0.5;
  };
  for (const auto& layer : layers_) {
    for (std::size_t r = 0; r < layer.w_mu.rows(); ++r) {
      for (std::size_t c = 0; c < layer.w_mu.cols(); ++c) add(layer.w_mu(r, c), layer.w_rho(r, c));
      add(layer.b_mu[r], layer.b_rho[r]);
    }
  }
  return acc;
}

double Bnn::train_batch(const Matrix& x, const Vec& y, std::size_t dataset_size, Optimizer& opt,
                        Rng& rng, std::size_t mc_samples) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("Bnn::train_batch: bad batch");
  }
  mc_samples = std::max<std::size_t>(1, mc_samples);
  const double n = static_cast<double>(x.rows());
  const double sn2 = config_.noise_sigma * config_.noise_sigma;
  const double kl_weight =
      config_.kl_scale / static_cast<double>(std::max<std::size_t>(1, dataset_size));
  zero_grad();
  double total_nll = 0.0;
  for (std::size_t s = 0; s < mc_samples; ++s) {
    sample_weights(rng);
    const Matrix out = forward(x);
    Matrix dnll(x.rows(), 1);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double err = out(i, 0) - y[i];
      total_nll += 0.5 * err * err / sn2 / n / static_cast<double>(mc_samples);
      dnll(i, 0) = err / sn2 / n / static_cast<double>(mc_samples);
    }
    backward(dnll);
    route_sample_grads();
    add_prior_grads(kl_weight / static_cast<double>(mc_samples));
  }
  opt.step(params());
  double complexity = 0.0;
  if (config_.prior == BnnPrior::kGaussianAnalytic) complexity = kl_weight * kl_to_prior();
  return total_nll + complexity;
}

double Bnn::train(const Matrix& x, const Vec& y, std::size_t epochs, std::size_t batch_size,
                  Optimizer& opt, StepLr* sched, Rng& rng, std::size_t mc_samples) {
  if (x.rows() != y.size()) throw std::invalid_argument("Bnn::train: size mismatch");
  if (x.rows() == 0) return 0.0;
  batch_size = std::max<std::size_t>(1, std::min(batch_size, x.rows()));
  double last_epoch_loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto order = rng.permutation(x.rows());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t nb = std::min(batch_size, order.size() - start);
      Matrix xb(nb, x.cols());
      Vec yb(nb);
      for (std::size_t i = 0; i < nb; ++i) {
        xb.set_row(i, x.row(order[start + i]));
        yb[i] = y[order[start + i]];
      }
      epoch_loss += train_batch(xb, yb, x.rows(), opt, rng, mc_samples);
      ++batches;
      if (sched != nullptr) sched->step();
    }
    last_epoch_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches));
  }
  return last_epoch_loss;
}

MeanStd Bnn::predict(const Vec& x, std::size_t mc, Rng& rng) const {
  mc = std::max<std::size_t>(2, mc);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t s = 0; s < mc; ++s) {
    const double v = thompson(rng).predict(x);
    sum += v;
    sum_sq += v * v;
  }
  MeanStd ms;
  ms.mean = sum / static_cast<double>(mc);
  const double var =
      std::max(0.0, sum_sq / static_cast<double>(mc) - ms.mean * ms.mean);
  ms.std = std::sqrt(var);
  return ms;
}

double Bnn::predict_at_mean(const Vec& x) const {
  if (x.size() != input_dim()) {
    throw std::invalid_argument("Bnn::predict_at_mean: input width does not match the network");
  }
  // The posterior means are (out x in): each output is one dot product over
  // the layer input, summed in the same order as BnnSample's kernel.
  Vec h = x;
  Vec next;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Matrix& w = layers_[l].w_mu;
    next.resize(w.rows());
    for (std::size_t o = 0; o < w.rows(); ++o) {
      const double* wrow = w.data() + o * w.cols();
      double acc = layers_[l].b_mu[o];
      for (std::size_t i = 0; i < w.cols(); ++i) acc += wrow[i] * h[i];
      next[o] = (l + 1 < layers_.size() && acc < 0.0) ? 0.0 : acc;
    }
    h.swap(next);
  }
  return h[0];
}

BnnSample Bnn::mean_sample() const {
  BnnSample s;
  s.weights.reserve(layers_.size());
  s.biases.reserve(layers_.size());
  for (const auto& layer : layers_) {
    s.weights.push_back(layer.w_mu.transposed());
    s.biases.push_back(layer.b_mu);
  }
  return s;
}

BnnSample Bnn::thompson(Rng& rng) const {
  BnnSample s;
  s.weights.reserve(layers_.size());
  s.biases.reserve(layers_.size());
  for (const auto& layer : layers_) {
    const std::size_t out = layer.w_mu.rows();
    const std::size_t in = layer.w_mu.cols();
    Matrix w(in, out);  // input-major; drawn in (out, in) order as always
    Vec b(out);
    for (std::size_t r = 0; r < out; ++r) {
      for (std::size_t c = 0; c < in; ++c) {
        w(c, r) = layer.w_mu(r, c) + softplus(layer.w_rho(r, c)) * rng.normal();
      }
      b[r] = layer.b_mu[r] + softplus(layer.b_rho[r]) * rng.normal();
    }
    s.weights.push_back(std::move(w));
    s.biases.push_back(std::move(b));
  }
  return s;
}

}  // namespace atlas::nn
