#include "telemetry/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace atlas::telemetry {

namespace {

void write_escaped(std::ostream& os, const std::string& v) {
  os << '"';
  for (char c : v) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) os_ << ", ";
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  os_ << "{";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  needs_comma_.pop_back();
  os_ << "}";
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  os_ << "[";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  needs_comma_.pop_back();
  os_ << "]";
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separate();
  write_escaped(os_, name);
  os_ << ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Inf
    return *this;
  }
  // Shortest representation that still round-trips to the same double.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separate();
  write_escaped(os_, v);
  return *this;
}

void write_histogram_json(JsonWriter& json, const HistogramData& histogram,
                          double unit_divisor) {
  const auto scaled = [&](std::uint64_t v) {
    return static_cast<double>(v) / unit_divisor;
  };
  json.begin_object()
      .field("count", histogram.count())
      .field("mean", histogram.mean() / unit_divisor)
      .field("min", scaled(histogram.min()))
      .field("p50", scaled(histogram.quantile(0.50)))
      .field("p90", scaled(histogram.quantile(0.90)))
      .field("p99", scaled(histogram.quantile(0.99)))
      .field("p999", scaled(histogram.quantile(0.999)))
      .field("max", scaled(histogram.max()))
      .end_object();
}

}  // namespace atlas::telemetry
