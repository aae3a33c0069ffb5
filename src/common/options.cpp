#include "common/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/flag_parse.hpp"

namespace atlas::common {

namespace {

/// The variable's value, or nullptr when it is unset or empty.
const char* env_value(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? nullptr : value;
}

}  // namespace

BenchOptions bench_options() {
  BenchOptions opts;
  if (const char* scale = env_value("ATLAS_BENCH_SCALE")) {
    opts.scale = std::max(0.05, parse_double("ATLAS_BENCH_SCALE", scale));
  }
  opts.csv = env_value("ATLAS_BENCH_CSV") != nullptr;
  if (const char* seed = env_value("ATLAS_SEED")) {
    opts.seed = parse_integer<unsigned long long>("ATLAS_SEED", seed);
  }
  return opts;
}

std::size_t BenchOptions::iters(std::size_t base, std::size_t min_value) const {
  const double scaled = std::round(static_cast<double>(base) * scale);
  // 2^64 for a 64-bit size_t: the first double past its range.
  const double limit = std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(scaled >= 0.0 && scaled < limit)) {
    throw std::invalid_argument("ATLAS_BENCH_SCALE " + std::to_string(scale) + " scales " +
                                std::to_string(base) + " iterations out of size_t's range");
  }
  return std::max(min_value, static_cast<std::size_t>(scaled));
}

double BenchOptions::episode_seconds(double base) const {
  // Episodes shrink more slowly than iteration budgets: statistics need a
  // minimum number of frames to make QoE estimates meaningful.
  return std::max(4.0, base * std::min(1.0, 0.25 + 0.75 * scale));
}

}  // namespace atlas::common
