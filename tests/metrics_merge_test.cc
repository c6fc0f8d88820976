// Tests of service metrics aggregation across shards: exact percentile
// merging of raw latency histograms (the reason ShardedService pools samples
// instead of averaging per-shard percentiles) and the counter-wise
// ServiceMetricsSnapshot::Merge.

#include "service/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace planorder::service {
namespace {

TEST(LatencyHistogramMergeTest, NonOverlappingHistogramsMergeExactly) {
  // Two shards with disjoint latency ranges: shard A saw 1..50 ms, shard B
  // saw 101..150 ms. Per-shard percentiles are useless for the cluster (any
  // average of A's p99 and B's p99 is wrong); merging the raw samples must
  // reproduce the percentiles of one histogram that recorded all 100.
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  for (int i = 1; i <= 50; ++i) {
    a.Record(double(i));
    all.Record(double(i));
  }
  for (int i = 101; i <= 150; ++i) {
    b.Record(double(i));
    all.Record(double(i));
  }

  LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);

  EXPECT_EQ(merged.count(), 100u);
  EXPECT_DOUBLE_EQ(merged.total_ms(), all.total_ms());
  EXPECT_DOUBLE_EQ(merged.max_ms(), 150.0);
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), all.Percentile(p))
        << "percentile " << p;
  }
  // The cluster p50 sits at the top of shard A's range, nowhere near the
  // mean of the per-shard medians (25.5 + 125.5)/2 — the exact value only
  // falls out of the pooled samples.
  EXPECT_DOUBLE_EQ(merged.Percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(99.0), 149.0);
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

TEST(LatencyHistogramMergeTest, MergeSafeAgainstConcurrentRecords) {
  LatencyHistogram shard;
  LatencyHistogram merged;
  std::thread writer([&shard] {
    for (int i = 0; i < 2000; ++i) shard.Record(double(i));
  });
  // Concurrent merges must see some prefix of the writer's samples without
  // tearing (the snapshot-then-fold protocol).
  for (int i = 0; i < 10; ++i) {
    LatencyHistogram scratch;
    scratch.Merge(shard);
    EXPECT_LE(scratch.count(), 2000u);
  }
  writer.join();
  merged.Merge(shard);
  EXPECT_EQ(merged.count(), 2000u);
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
  EXPECT_EQ(a.total_answers, 150);
  EXPECT_EQ(a.plan_store_entries_rejected, 3);
  EXPECT_EQ(a.runtime.source_cache_hits, 9);
}

}  // namespace
}  // namespace planorder::service
