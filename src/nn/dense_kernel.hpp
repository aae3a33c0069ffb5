#pragma once

#include <cstddef>

namespace atlas::nn {

struct BnnSample;

/// The register-blocked dense kernel behind BnnSample::predict_batch, built
/// at three lane counts: 2 (SSE2, the baseline and the reference), 4 (AVX2)
/// and 8 (AVX-512F). All compute each output as bias + w_0 h_0 + w_1 h_1 + ...
/// in input order, with lanes across outputs only and no fused multiply-add,
/// so they agree bit for bit.
namespace dense_kernel {

/// The widths the kernel is built at, narrowest first.
inline constexpr std::size_t kLaneCounts[] = {2, 4, 8};

/// Whether this CPU runs the `lanes`-wide kernel (2 lanes always do).
bool supported(std::size_t lanes);

/// The widest supported width, picked once on first use: the one
/// BnnSample::predict and predict_batch run.
std::size_t dispatched_lanes();

/// out[r] = the network's output for row r of `x` (row stride `x_stride`),
/// computed at `lanes` lanes. Throws std::invalid_argument if this CPU lacks
/// that width or `x_stride` is not the network's input width.
void predict_rows(std::size_t lanes, const BnnSample& s, const double* x, std::size_t rows,
                  std::size_t x_stride, double* out);

}  // namespace dense_kernel
}  // namespace atlas::nn
