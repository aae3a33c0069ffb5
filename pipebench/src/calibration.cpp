#include "calibration.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "probe.hpp"

namespace pipebench {

namespace {

volatile double g_sink = 0.0;  // keeps the work from being optimised away

void dense_forward() {
  constexpr int kWidth = 64;
  std::vector<double> weights(kWidth * kWidth);
  for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 0.1 * std::sin(static_cast<double>(i));
  std::vector<double> in(kWidth);
  std::vector<double> out(kWidth);
  for (int i = 0; i < kWidth; ++i) in[i] = 0.01 * i;
  for (int pass = 0; pass < 1500; ++pass) {
    for (int r = 0; r < kWidth; ++r) {
      double s = 0.0;
      for (int c = 0; c < kWidth; ++c) s += weights[r * kWidth + c] * in[c];
      out[r] = std::tanh(s);
    }
    std::swap(in, out);
  }
  g_sink = in[3];
}

void event_loop() {
  using Event = std::pair<double, int>;
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> gap(1.0);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (int i = 0; i < 256; ++i) queue.push({gap(rng), i});
  std::vector<std::vector<double>> logs(64);
  double acc = 0.0;
  for (int i = 0; i < 60000; ++i) {
    const auto [when, id] = queue.top();
    queue.pop();
    std::vector<double>& log = logs[static_cast<std::size_t>(id & 63)];
    log.push_back(std::log1p(when));
    if (log.size() > 32) {
      acc += log[5];
      log = std::vector<double>();
    }
    queue.push({when + gap(rng), id});
  }
  g_sink = acc;
}

}  // namespace

double calibration_s() {
  const std::uint64_t start = wall_ns();
  dense_forward();
  event_loop();
  return 1e-9 * static_cast<double>(wall_ns() - start);
}

}  // namespace pipebench
