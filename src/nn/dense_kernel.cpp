// FP contraction stays off in this file: AVX-512F brings FMA, and a fused
// w * h + acc would round once where the other widths round twice.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "nn/dense_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/bnn.hpp"

namespace atlas::nn::dense_kernel {

namespace {

using atlas::math::Matrix;
using atlas::math::Vec;

// Every helper the entry points call is always_inline, so each width's entry
// point (rows_lanes2/4/8 below) compiles the whole kernel for its own target.

/// Rows per register block.
constexpr std::size_t kRowBlock = 4;

/// L doubles in one vector register (a GCC/Clang vector type): SSE2 at 2
/// lanes, AVX2 at 4, AVX-512F at 8. Each lane is an ordinary IEEE double
/// operation. One specialization per width: GCC 12 reads a vector_size that
/// depends on a template parameter as a plain double.
template <std::size_t L>
struct LaneRegister;
template <>
struct LaneRegister<2> {
  using type = double __attribute__((vector_size(2 * sizeof(double))));
};
template <>
struct LaneRegister<4> {
  using type = double __attribute__((vector_size(4 * sizeof(double))));
};
template <>
struct LaneRegister<8> {
  using type = double __attribute__((vector_size(8 * sizeof(double))));
};
template <std::size_t L>
using Lanes = typename LaneRegister<L>::type;

/// Running sums of 2L consecutive outputs of one row, in two L-lane registers
/// (at 2 lanes: four outputs in two SSE2 registers).
template <std::size_t L>
struct AccL {
  static constexpr std::size_t kWidth = 2 * L;
  static_assert(sizeof(Lanes<L>) == L * sizeof(double));
  Lanes<L> lo;
  Lanes<L> hi;

  [[gnu::always_inline]] static AccL load(const double* p) {
    AccL a{};
    std::memcpy(&a.lo, p, sizeof(Lanes<L>));
    std::memcpy(&a.hi, p + L, sizeof(Lanes<L>));
    return a;
  }
  [[gnu::always_inline]] void add(const AccL& w, double h) {
    lo += w.lo * h;
    hi += w.hi * h;
  }
  [[gnu::always_inline]] void store(bool relu, double* y) const {
    Lanes<L> a = lo;
    Lanes<L> b = hi;
    if (relu) {
      const Lanes<L> zero{};
      a = a < zero ? zero : a;
      b = b < zero ? zero : b;
    }
    std::memcpy(y, &a, sizeof(Lanes<L>));
    std::memcpy(y + L, &b, sizeof(Lanes<L>));
  }
};

/// The running sum of one output: the columns left over after the AccL
/// blocks (e.g. the scalar output layer).
struct Acc1 {
  static constexpr std::size_t kWidth = 1;
  double v;

  [[gnu::always_inline]] static Acc1 load(const double* p) { return Acc1{*p}; }
  [[gnu::always_inline]] void add(const Acc1& w, double h) { v += w.v * h; }
  [[gnu::always_inline]] void store(bool relu, double* y) const {
    y[0] = (relu && v < 0.0) ? 0.0 : v;
  }
};

/// y[r][o0 + c] = act(b[o0 + c] + sum_i h[r][i] w[i][o0 + c]) for R (1 or
/// kRowBlock) rows and the A::kWidth outputs from o0 of one input-major
/// (in x out) layer. Each sum runs over i in order, exactly as a scalar
/// dot-product loop would; the vectorization is across outputs, never
/// across i. The accumulators are named, not an array, so they stay in
/// registers.
template <std::size_t R, typename A>
[[gnu::always_inline]] inline void dense_block(const Matrix& w, const Vec& b, bool relu,
                                               std::size_t o0, const double* h,
                                               std::size_t h_stride, double* y,
                                               std::size_t y_stride) {
  static_assert(R == 1 || R == kRowBlock);
  const std::size_t in = w.rows();
  const std::size_t out = w.cols();
  const double* h1 = h + (R > 1 ? h_stride : 0);
  const double* h2 = h + (R > 1 ? 2 * h_stride : 0);
  const double* h3 = h + (R > 1 ? 3 * h_stride : 0);
  A a0 = A::load(b.data() + o0);
  A a1 = a0;
  A a2 = a0;
  A a3 = a0;
  for (std::size_t i = 0; i < in; ++i) {
    const A wi = A::load(w.data() + i * out + o0);
    a0.add(wi, h[i]);
    if constexpr (R > 1) {
      a1.add(wi, h1[i]);
      a2.add(wi, h2[i]);
      a3.add(wi, h3[i]);
    }
  }
  a0.store(relu, y + o0);
  if constexpr (R > 1) {
    a1.store(relu, y + y_stride + o0);
    a2.store(relu, y + 2 * y_stride + o0);
    a3.store(relu, y + 3 * y_stride + o0);
  }
}

/// All layers for R consecutive rows of `x`; `scratch` holds two R x width
/// activation buffers.
template <std::size_t R, std::size_t L>
[[gnu::always_inline]] inline void forward_rows(const BnnSample& s, const double* x,
                                                std::size_t x_stride, double* scratch,
                                                std::size_t width, double* out) {
  const double* h = x;
  std::size_t h_stride = x_stride;
  double* y = scratch;
  for (std::size_t l = 0; l < s.weights.size(); ++l) {
    const Matrix& w = s.weights[l];
    const bool relu = l + 1 < s.weights.size();
    std::size_t o = 0;
    for (; o + AccL<L>::kWidth <= w.cols(); o += AccL<L>::kWidth) {
      dense_block<R, AccL<L>>(w, s.biases[l], relu, o, h, h_stride, y, width);
    }
    for (; o < w.cols(); ++o) dense_block<R, Acc1>(w, s.biases[l], relu, o, h, h_stride, y, width);
    h = y;
    h_stride = width;
    y = y == scratch ? scratch + R * width : scratch;
  }
  for (std::size_t r = 0; r < R; ++r) out[r] = h[r * h_stride];
}

/// Predictions for `rows` rows of `x` (row stride `x_stride`), kRowBlock at
/// a time, the remainder one by one.
template <std::size_t L>
[[gnu::always_inline]] inline void rows_at(const BnnSample& s, const double* x,
                                           std::size_t rows, std::size_t x_stride,
                                           double* out) {
  std::size_t width = 0;
  for (const auto& w : s.weights) width = std::max(width, w.cols());
  std::vector<double> scratch(2 * std::min(rows, kRowBlock) * width);
  std::size_t n = 0;
  for (; n + kRowBlock <= rows; n += kRowBlock) {
    forward_rows<kRowBlock, L>(s, x + n * x_stride, x_stride, scratch.data(), width, out + n);
  }
  for (; n < rows; ++n) {
    forward_rows<1, L>(s, x + n * x_stride, x_stride, scratch.data(), width, out + n);
  }
}

// One entry point per width. target("avx2") does not enable FMA and
// target("avx512f") does, so every width relies on the fp-contract=off at the
// top of this file to keep each multiply and add separate.

void rows_lanes2(const BnnSample& s, const double* x, std::size_t rows, std::size_t x_stride,
                 double* out) {
  rows_at<2>(s, x, rows, x_stride, out);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void rows_lanes4(const BnnSample& s, const double* x, std::size_t rows,
                                         std::size_t x_stride, double* out) {
  rows_at<4>(s, x, rows, x_stride, out);
}

[[gnu::target("avx512f")]] void rows_lanes8(const BnnSample& s, const double* x,
                                            std::size_t rows, std::size_t x_stride,
                                            double* out) {
  rows_at<8>(s, x, rows, x_stride, out);
}
#endif

}  // namespace

bool supported(std::size_t lanes) {
#if defined(__x86_64__)
  __builtin_cpu_init();  // in case this runs before the static constructors
  if (lanes == 4) return __builtin_cpu_supports("avx2");
  if (lanes == 8) return __builtin_cpu_supports("avx512f");
#endif
  return lanes == 2;
}

std::size_t dispatched_lanes() {
  static const std::size_t lanes = [] {
    std::size_t widest = 0;
    for (std::size_t l : kLaneCounts) {
      if (supported(l)) widest = l;
    }
    return widest;
  }();
  return lanes;
}

void predict_rows(std::size_t lanes, const BnnSample& s, const double* x, std::size_t rows,
                  std::size_t x_stride, double* out) {
  if (!supported(lanes)) {
    throw std::invalid_argument("dense_kernel: this CPU has no " + std::to_string(lanes) +
                                "-lane kernel");
  }
  if (s.weights.empty() || x_stride != s.weights.front().rows()) {
    throw std::invalid_argument("BnnSample: input width does not match the network");
  }
  switch (lanes) {
#if defined(__x86_64__)
    case 4:
      rows_lanes4(s, x, rows, x_stride, out);
      return;
    case 8:
      rows_lanes8(s, x, rows, x_stride, out);
      return;
#endif
    default:
      rows_lanes2(s, x, rows, x_stride, out);
  }
}

}  // namespace atlas::nn::dense_kernel
