// Serving-telemetry primitives: log-scale histogram exactness against a
// sorted-vector reference (including shard merges and edge cases), concurrent
// recording (TSan covers the data-race side), and the JSON writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/report.hpp"

namespace telemetry = atlas::telemetry;

namespace {

/// The reference quantile under the same rank rule the histogram documents:
/// the value at cumulative rank ceil(q * n), clamped into [1, n].
std::uint64_t reference_quantile(std::vector<std::uint64_t> sorted, double q) {
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return sorted[rank - 1];
}

/// The histogram reports a bucket upper bound: never below the true sample
/// quantile, and at most one sub-bucket width (2^-kSubBucketBits relative,
/// +1 for integer truncation) above it.
void expect_quantile_close(std::uint64_t hist_q, std::uint64_t ref_q) {
  EXPECT_GE(hist_q, ref_q);
  EXPECT_LE(hist_q, ref_q + (ref_q >> telemetry::kSubBucketBits) + 1);
}

const double kQuantiles[] = {0.0, 0.5, 0.9, 0.99, 0.999, 1.0};

}  // namespace

TEST(HistogramBuckets, BoundsContainTheirValues) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 2048; ++v) values.push_back(v);
  for (int p = 6; p < 41; ++p) {
    const std::uint64_t pow2 = 1ull << p;
    values.insert(values.end(), {pow2 - 1, pow2, pow2 + 1});
  }
  values.push_back(telemetry::kMaxTrackable);
  for (const std::uint64_t v : values) {
    const std::size_t index = telemetry::bucket_index(v);
    ASSERT_LT(index, telemetry::kBucketCount);
    const std::uint64_t ub = telemetry::bucket_upper_bound(index);
    EXPECT_GE(ub, v) << "value " << v;
    EXPECT_LE(ub, v + (v >> telemetry::kSubBucketBits) + 1) << "value " << v;
  }
}

TEST(HistogramBuckets, LinearRegionIsExact) {
  for (std::uint64_t v = 0; v < telemetry::kSubBuckets; ++v) {
    EXPECT_EQ(telemetry::bucket_upper_bound(telemetry::bucket_index(v)), v);
  }
}

TEST(HistogramBuckets, SaturatesBeyondMaxTrackable) {
  const std::size_t last = telemetry::kBucketCount - 1;
  EXPECT_EQ(telemetry::bucket_index(telemetry::kMaxTrackable * 2), last);
  EXPECT_EQ(telemetry::bucket_index(~0ull), last);
  EXPECT_GE(telemetry::bucket_upper_bound(last), telemetry::kMaxTrackable);
}

TEST(HistogramData, QuantilesMatchSortedReference) {
  // Log-uniform values spanning the exact linear region through many octaves,
  // like a latency distribution with a long tail.
  atlas::math::Rng rng(42);
  std::vector<std::uint64_t> values;
  telemetry::HistogramData hist;
  for (int i = 0; i < 20000; ++i) {
    const double log_value = rng.uniform(0.0, 30.0);
    const auto v = static_cast<std::uint64_t>(std::exp2(log_value));
    values.push_back(v);
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(hist.count(), values.size());
  for (const double q : kQuantiles) {
    expect_quantile_close(hist.quantile(q), reference_quantile(values, q));
  }
  EXPECT_GE(hist.max(), values.back());
  EXPECT_LE(hist.min(), values.front());
}

TEST(HistogramData, MergeAcrossShardsEqualsOneHistogram) {
  // Three "shards" record disjoint slices; the merged histogram must be
  // bucket-identical to recording everything into one (merge is exact).
  atlas::math::Rng rng(7);
  telemetry::HistogramData whole;
  telemetry::HistogramData shards[3];
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 9000; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.exponential(50000.0));
    values.push_back(v);
    whole.record(v);
    shards[i % 3].record(v);
  }
  telemetry::HistogramData merged;
  for (const auto& shard : shards) merged.merge(shard);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.counts(), whole.counts());
  std::sort(values.begin(), values.end());
  for (const double q : kQuantiles) {
    EXPECT_EQ(merged.quantile(q), whole.quantile(q));
    expect_quantile_close(merged.quantile(q), reference_quantile(values, q));
  }
}

TEST(HistogramData, EmptyAndOneSampleEdges) {
  telemetry::HistogramData empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);

  telemetry::HistogramData one;
  one.record(12345);
  EXPECT_EQ(one.count(), 1u);
  for (const double q : kQuantiles) {
    expect_quantile_close(one.quantile(q), 12345);
  }
  EXPECT_EQ(one.mean(), 12345.0);
}

TEST(HistogramData, SubtractYieldsIntervalDelta) {
  telemetry::HistogramData hist;
  for (int i = 0; i < 100; ++i) hist.record(1000);
  const telemetry::HistogramData start = hist;  // phase boundary snapshot
  for (int i = 0; i < 50; ++i) hist.record(9000);
  telemetry::HistogramData delta = hist;
  delta.subtract(start);
  EXPECT_EQ(delta.count(), 50u);
  expect_quantile_close(delta.quantile(0.5), 9000);
  // Subtracting a SUPERSET clamps instead of underflowing.
  telemetry::HistogramData over = start;
  over.subtract(hist);
  EXPECT_EQ(over.count(), 0u);
}

TEST(HistogramData, FromCountsRoundTrip) {
  telemetry::HistogramData hist;
  for (std::uint64_t v : {0ull, 31ull, 32ull, 1000ull, 123456789ull}) hist.record(v);
  const telemetry::HistogramData back =
      telemetry::HistogramData::from_counts(hist.counts(), hist.sum());
  EXPECT_EQ(back.count(), hist.count());
  EXPECT_EQ(back.sum(), hist.sum());
  EXPECT_EQ(back.counts(), hist.counts());
}

TEST(HistogramAtomic, ConcurrentRecordsAllLand) {
  telemetry::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const telemetry::HistogramData snap = hist.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  hist.reset();
  EXPECT_EQ(hist.snapshot().count(), 0u);
}

TEST(JsonReport, WellFormedAndEscaped) {
  std::ostringstream os;
  telemetry::JsonWriter json(os);
  json.begin_object();
  json.field("name", "quo\"te\\back\nline");
  json.field("count", std::uint64_t{3});
  json.field("ratio", 0.25);
  json.key("list");
  json.begin_array();
  json.value(1);
  json.value(2);
  json.end_array();
  json.end_object();
  const std::string text = os.str();
  EXPECT_EQ(text,
            "{\"name\": \"quo\\\"te\\\\back\\nline\", \"count\": 3, "
            "\"ratio\": 0.25, \"list\": [1, 2]}");
}
