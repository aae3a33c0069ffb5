#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/histogram.hpp"

namespace atlas::telemetry {

/// Minimal streaming JSON writer: tracks nesting and comma placement so the
/// BENCH_*.json emitters stop hand-interleaving separators. Strings are
/// escaped; doubles print with enough digits to round-trip. Not a general
/// serializer — exactly what the bench and loadgen reports need.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key for the next value inside an object.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

 private:
  void separate();

  std::ostream& os_;
  std::vector<bool> needs_comma_;  ///< Per open scope.
  bool after_key_ = false;
};

/// Serialize one histogram as an object with count/mean/min/max and the
/// serving quantiles (p50/p90/p99/p999), values scaled by `unit_divisor`
/// (1e6 turns recorded nanoseconds into milliseconds).
void write_histogram_json(JsonWriter& json, const HistogramData& histogram,
                          double unit_divisor = 1.0);

}  // namespace atlas::telemetry
