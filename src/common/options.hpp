#pragma once

#include <cstddef>

namespace atlas::common {

/// Shared knobs for bench/example binaries, read from the environment so
/// `for b in build/bench/*; do $b; done` works unchanged:
///
///  - ATLAS_BENCH_SCALE  (finite number >= 0, default 1.0, floored at 0.05):
///    multiplies iteration budgets and episode durations. Scale 1 targets
///    minutes for the whole suite on a 2-core box; the paper's full budgets
///    correspond to roughly scale 8.
///  - ATLAS_BENCH_CSV    (if set, non-empty): benches additionally emit CSV.
///  - ATLAS_SEED         (decimal digits up to 2^64 - 1, default 7): master
///    seed for experiments.
///
/// An unset or empty variable takes its default; any other value that does
/// not fit throws std::invalid_argument naming the variable.
struct BenchOptions {
  double scale = 1.0;
  bool csv = false;
  unsigned long long seed = 7;

  /// Scaled iteration count: max(min_value, round(base * scale)). Throws
  /// std::invalid_argument when the scaled count does not fit a size_t.
  std::size_t iters(std::size_t base, std::size_t min_value = 1) const;

  /// Scaled episode duration in simulated seconds (base 60 s in the paper).
  double episode_seconds(double base) const;
};

/// Read the options from the environment (each call re-reads; cheap).
BenchOptions bench_options();

}  // namespace atlas::common
