// Tests of service metrics aggregation across shards: the contract of the
// fixed-bucket LatencyHistogram against an exact recorder (its percentile
// error bound, exact merging, no heap traffic) and the field-wise
// ServiceMetricsSnapshot::Merge.

#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "alloc_counter.h"
#include "gtest/gtest.h"

namespace planorder::service {
namespace {

static_assert(sizeof(LatencyHistogram) <= 8 * 1024 + 16,
              "LatencyHistogram's footprint is 1,024 counters, a count and a "
              "max");

/// The oracle: keeps every sample and answers nearest-rank percentiles over
/// the sorted samples.
class ExactRecorder {
 public:
  void Record(double ms) { samples_.push_back(ms); }

  double Percentile(double p) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double n = double(sorted.size());
    const auto rank =
        static_cast<size_t>(std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
    return sorted[rank - 1];
  }

  double max_ms() const {
    return *std::max_element(samples_.begin(), samples_.end());
  }

 private:
  std::vector<double> samples_;
};

/// First value of the last bucket: 2^31 · (1 + 31/32) µs, in ms.
const double kLastBucketMs = std::ldexp(63.0 / 32.0, 31) / 1000.0;
/// Upper edge of the first bucket, which also holds everything below 1 µs.
constexpr double kFirstEdgeMs = 1.03125e-3;

/// The header's bound: never below the exact value; at most 1/32 above it
/// from 1 µs up, at most the first bucket's edge below 1 µs, and at most the
/// max in the last bucket.
void ExpectWithinBound(double got, double exact, double max_ms, double p) {
  EXPECT_GE(got, exact) << "p" << p;
  EXPECT_LE(got, max_ms) << "p" << p;
  if (exact < kLastBucketMs) {
    const double limit =
        std::max(exact * (1.0 + 1.0 / 32.0), kFirstEdgeMs) * (1.0 + 1e-12);
    EXPECT_LE(got, limit) << "p" << p << " exact " << exact;
  }
}

enum class Range { kZero, kSubMicro, kMicroToTenSeconds, kPastTop, kMixed };

double Draw(Range range, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  switch (range) {
    case Range::kZero:
      return 0.0;
    case Range::kSubMicro:
      return unit(rng) * 1e-3;
    case Range::kMicroToTenSeconds:
      return std::pow(10.0, -3.0 + 7.0 * unit(rng));  // 1 µs .. 10 s
    case Range::kPastTop:
      return 4294967.296 * (1.0 + 20.0 * unit(rng));  // >= 2^32 µs
    case Range::kMixed:
      return Draw(Range(rng() % 4), rng);
  }
  return 0.0;
}

TEST(LatencyHistogramTest, PercentilesStayWithinTheBoundOfTheExactValue) {
  for (Range range : {Range::kZero, Range::kSubMicro,
                      Range::kMicroToTenSeconds, Range::kPastTop,
                      Range::kMixed}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      for (int n : {1, 2, 17, 1000}) {
        std::mt19937_64 rng(seed * 7919 + uint64_t(n));
        LatencyHistogram histogram;
        ExactRecorder exact;
        for (int i = 0; i < n; ++i) {
          const double ms = Draw(range, rng);
          histogram.Record(ms);
          exact.Record(ms);
        }
        SCOPED_TRACE(testing::Message() << "range " << int(range) << " seed "
                                        << seed << " n " << n);
        ASSERT_EQ(histogram.count(), uint64_t(n));
        ASSERT_EQ(histogram.max_ms(), exact.max_ms());
        for (int p = 0; p <= 100; ++p) {
          ExpectWithinBound(histogram.Percentile(p), exact.Percentile(p),
                            exact.max_ms(), p);
        }
        ExpectWithinBound(histogram.Percentile(99.9), exact.Percentile(99.9),
                          exact.max_ms(), 99.9);
      }
    }
  }
}

TEST(LatencyHistogramTest, EmptyHistogramReadsZero) {
  const LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.max_ms(), 0.0);
  EXPECT_EQ(empty.Percentile(50.0), 0.0);
}

TEST(LatencyHistogramMergeTest, ShardMergeEqualsRecordingTheUnion) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::mt19937_64 rng(seed);
    std::vector<LatencyHistogram> shards(5);
    LatencyHistogram all;
    for (int i = 0; i < 4000; ++i) {
      const double ms = Draw(Range::kMixed, rng);
      shards[rng() % shards.size()].Record(ms);
      all.Record(ms);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& shard : shards) merged.Merge(shard);
    EXPECT_EQ(merged, all);  // every bucket, the count and the max
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.max_ms(), all.max_ms());
    for (int p = 0; p <= 100; ++p) {
      EXPECT_EQ(merged.Percentile(p), all.Percentile(p)) << "p" << p;
    }
  }
}

TEST(LatencyHistogramMergeTest, NonOverlappingHistogramsMergeExactly) {
  // Two shards with disjoint latency ranges: shard A saw 1..50 ms, shard B
  // saw 101..150 ms. Per-shard percentiles are useless for the cluster (any
  // average of A's p99 and B's p99 is wrong); merging the histograms must
  // reproduce the percentiles of one histogram that recorded all 100.
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  ExactRecorder exact;
  for (int i = 1; i <= 50; ++i) {
    a.Record(double(i));
    all.Record(double(i));
    exact.Record(double(i));
  }
  for (int i = 101; i <= 150; ++i) {
    b.Record(double(i));
    all.Record(double(i));
    exact.Record(double(i));
  }

  LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);

  EXPECT_EQ(merged.count(), 100u);
  EXPECT_EQ(merged, all);
  EXPECT_DOUBLE_EQ(merged.max_ms(), 150.0);
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), all.Percentile(p))
        << "percentile " << p;
  }
  // The cluster p50 sits at the top of shard A's range, nowhere near the
  // mean of the per-shard medians (25.5 + 125.5)/2.
  EXPECT_EQ(exact.Percentile(50.0), 50.0);
  EXPECT_EQ(exact.Percentile(99.0), 149.0);
  ExpectWithinBound(merged.Percentile(50.0), 50.0, 150.0, 50.0);
  ExpectWithinBound(merged.Percentile(99.0), 149.0, 150.0, 99.0);
}

TEST(LatencyHistogramMergeTest, MergeLeavesSourceUntouched) {
  LatencyHistogram a;
  a.Record(1.0);
  LatencyHistogram merged;
  merged.Merge(a);
  merged.Record(2.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.max_ms(), 1.0);
  EXPECT_EQ(merged.count(), 2u);
}

TEST(LatencyHistogramTest, RecordingAllocatesNothing) {
  LatencyHistogram histogram;
  std::mt19937_64 rng(5);
  const bench::AllocationCount before = bench::AllocationsSoFar();
  for (int i = 0; i < 1'000'000; ++i) {
    histogram.Record(Draw(Range::kMixed, rng));
  }
  const bench::AllocationCount after = bench::AllocationsSoFar();
  EXPECT_EQ(after.allocations - before.allocations, 0);
  EXPECT_EQ(after.bytes - before.bytes, 0);
  EXPECT_EQ(histogram.count(), 1'000'000u);
}

TEST(ServiceMetricsSnapshotMergeTest, CountersSumPeaksMax) {
  ServiceMetricsSnapshot a;
  a.sessions_admitted = 10;
  a.sessions_completed = 8;
  a.sessions_shed = 2;
  a.queue_depth = 1;
  a.queue_depth_peak = 5;
  a.cache.hits = 3;
  a.cache.misses = 4;
  a.estimation_memo.hits = 190;
  a.estimation_memo.misses = 194;
  a.estimation_memo.evictions = 1;
  a.estimation_memo.bytes = 1000;
  a.latency.Record(4.0);
  a.total_answers = 100;
  a.plan_store_entries_rejected = 1;
  a.runtime.source_cache_hits = 7;

  ServiceMetricsSnapshot b;
  b.sessions_admitted = 5;
  b.sessions_completed = 5;
  b.queue_depth = 2;
  b.queue_depth_peak = 3;
  b.cache.hits = 1;
  b.estimation_memo.hits = 10;
  b.estimation_memo.misses = 6;
  b.estimation_memo.evictions = 2;
  b.estimation_memo.bytes = 24;
  b.latency.Record(9.0);
  b.latency.Record(1.0);
  b.total_answers = 50;
  b.plan_store_entries_rejected = 2;
  b.runtime.source_cache_hits = 2;

  a.Merge(b);
  EXPECT_EQ(a.sessions_admitted, 15);
  EXPECT_EQ(a.sessions_completed, 13);
  EXPECT_EQ(a.sessions_shed, 2);
  EXPECT_EQ(a.queue_depth, 3);        // depths sum (cluster-wide backlog)
  EXPECT_EQ(a.queue_depth_peak, 5);   // peaks max (no cross-shard moment)
  EXPECT_EQ(a.cache.hits, 4);
  EXPECT_EQ(a.cache.misses, 4);
  EXPECT_EQ(a.estimation_memo.hits, 200);
  EXPECT_EQ(a.estimation_memo.misses, 200);
  EXPECT_EQ(a.estimation_memo.evictions, 3);
  EXPECT_EQ(a.estimation_memo.bytes, 1024u);  // each shard's memo is resident
  EXPECT_EQ(a.latency.count(), 3u);
  EXPECT_EQ(a.latency.max_ms(), 9.0);
  EXPECT_EQ(a.total_answers, 150);
  EXPECT_EQ(a.plan_store_entries_rejected, 3);
  EXPECT_EQ(a.runtime.source_cache_hits, 9);
}

}  // namespace
}  // namespace planorder::service
