// Tests of the cross-session source-operation result cache (src/cluster/):
// the single-flight Acquire/Publish/Abort protocol, content keying, the
// per-name residency view, and LRU eviction under the byte bound, which
// charges keys as well as rows.

#include "cluster/source_cache.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace planorder::cluster {
namespace {

using Rows = std::vector<std::vector<datalog::Term>>;

exec::BindingBatch MakeBatch(const std::string& value) {
  exec::BindingBatch batch({0});
  batch.Add({datalog::Term::Constant(value)});
  return batch;
}

Rows MakeRows(const std::string& value, int count = 1) {
  Rows rows;
  for (int i = 0; i < count; ++i) {
    rows.push_back({datalog::Term::Constant(value),
                    datalog::Term::Constant(value + std::to_string(i))});
  }
  return rows;
}

TEST(SourceCacheTest, MissElectsLeaderThenHitServesPublishedRows) {
  SourceOperationCache cache;
  bool leader = false;
  auto miss = cache.Acquire("s0", MakeBatch("a"), &leader);
  EXPECT_FALSE(miss.has_value());
  EXPECT_TRUE(leader);

  const Rows rows = MakeRows("a", 3);
  cache.Publish("s0", MakeBatch("a"), rows);

  leader = false;
  auto hit = cache.Acquire("s0", MakeBatch("a"), &leader);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(leader);
  EXPECT_EQ(*hit, rows);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.resident_entries, 1);
}

TEST(SourceCacheTest, DistinctContentDistinctKeys) {
  SourceOperationCache cache;
  bool leader = false;
  EXPECT_FALSE(cache.Acquire("s0", MakeBatch("a"), &leader).has_value());
  cache.Publish("s0", MakeBatch("a"), MakeRows("a"));

  // Same source, different binding value: its own key, so a miss.
  EXPECT_FALSE(cache.Acquire("s0", MakeBatch("b"), &leader).has_value());
  EXPECT_TRUE(leader);
  // Different source, same batch: also a miss.
  EXPECT_FALSE(cache.Acquire("s1", MakeBatch("a"), &leader).has_value());
  EXPECT_TRUE(leader);
}

TEST(SourceCacheTest, ResidencyViewAggregatesPerName) {
  SourceOperationCache cache;
  EXPECT_FALSE(cache.IsResident("s0"));
  bool leader = false;
  cache.Acquire("s0", MakeBatch("a"), &leader);
  // In flight is not resident: the fetch has not paid off yet.
  EXPECT_FALSE(cache.IsResident("s0"));
  cache.Publish("s0", MakeBatch("a"), MakeRows("a"));
  EXPECT_TRUE(cache.IsResident("s0"));
  EXPECT_FALSE(cache.IsResident("s1"));
}

TEST(SourceCacheTest, AbortWakesAndPromotesOneWaiter) {
  SourceOperationCache cache;
  bool first_leader = false;
  EXPECT_FALSE(cache.Acquire("s0", MakeBatch("a"), &first_leader).has_value());
  ASSERT_TRUE(first_leader);

  // A waiter blocks behind the in-flight fetch; after the leader aborts it
  // must be promoted to leader itself (nullopt + leader).
  bool waiter_leader = false;
  std::optional<Rows> waiter_result;
  std::thread waiter([&cache, &waiter_leader, &waiter_result] {
    waiter_result = cache.Acquire("s0", MakeBatch("a"), &waiter_leader);
  });
  // Give the waiter a moment to block, then fail the fetch.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.Abort("s0", MakeBatch("a"));
  waiter.join();

  EXPECT_FALSE(waiter_result.has_value());
  EXPECT_TRUE(waiter_leader);
  // The promoted leader publishes; the key now serves hits.
  cache.Publish("s0", MakeBatch("a"), MakeRows("a"));
  bool leader = false;
  EXPECT_TRUE(cache.Acquire("s0", MakeBatch("a"), &leader).has_value());
  EXPECT_EQ(cache.stats().single_flight_waits, 1);
}

TEST(SourceCacheTest, SingleFlightCoalescesConcurrentFetches) {
  SourceOperationCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &leaders, &hits] {
      bool leader = false;
      auto result = cache.Acquire("s0", MakeBatch("a"), &leader);
      if (result.has_value()) {
        ++hits;
        return;
      }
      ASSERT_TRUE(leader);
      ++leaders;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      cache.Publish("s0", MakeBatch("a"), MakeRows("a"));
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactly one fetch hit the (hypothetical) network; everyone else was
  // served from the published entry.
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
}

TEST(SourceCacheTest, HitsCopyRowsWhileEvictionRemovesTheirEntry) {
  // A hit copies its rows after releasing the cache lock. Inserts of other
  // keys keep evicting the entry the readers hit; the copies must neither
  // race with the eviction nor read freed rows (TSan/ASan builds check).
  const Rows rows = MakeRows("a", 64);
  SourceOperationCache probe;
  bool leader = false;
  probe.Acquire("s0", MakeBatch("a"), &leader);
  probe.Publish("s0", MakeBatch("a"), rows);
  SourceCacheOptions options;
  options.capacity_bytes = probe.stats().resident_bytes;  // one entry fits

  SourceOperationCache cache(options);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&cache, &stop, &rows] {
      while (!stop.load()) {
        bool lead = false;
        auto got = cache.Acquire("s0", MakeBatch("a"), &lead);
        if (lead) {
          cache.Publish("s0", MakeBatch("a"), rows);
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, rows);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const std::string value = "b" + std::to_string(i);
    bool lead = false;
    if (!cache.Acquire("s1", MakeBatch(value), &lead).has_value() && lead) {
      cache.Publish("s1", MakeBatch(value), MakeRows(value, 64));
    }
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(SourceCacheTest, LruEvictionRespectsByteBoundAndRecency) {
  // Budget two entries' worth of payload; rows are sized so a third insert
  // must evict the least recently used key.
  SourceCacheOptions options;
  const Rows rows_a = MakeRows("aaaaaaaa", 4);
  SourceOperationCache probe;  // measures one entry's footprint
  bool leader = false;
  probe.Acquire("s0", MakeBatch("a"), &leader);
  probe.Publish("s0", MakeBatch("a"), rows_a);
  const int64_t per_entry = probe.stats().resident_bytes;
  ASSERT_GT(per_entry, 0);
  options.capacity_bytes = 2 * per_entry;

  SourceOperationCache cache(options);
  auto insert = [&cache](const std::string& source, const std::string& v) {
    bool lead = false;
    ASSERT_FALSE(cache.Acquire(source, MakeBatch(v), &lead).has_value());
    cache.Publish(source, MakeBatch(v), MakeRows("aaaaaaaa", 4));
  };
  insert("s0", "a");
  insert("s1", "b");
  // Refresh s0's recency with a hit, then overflow: s1 (now LRU) must go.
  ASSERT_TRUE(cache.Acquire("s0", MakeBatch("a"), &leader).has_value());
  insert("s2", "c");

  EXPECT_TRUE(cache.IsResident("s0"));
  EXPECT_FALSE(cache.IsResident("s1"));
  EXPECT_TRUE(cache.IsResident("s2"));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_entries, 2);
  EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
}

TEST(SourceCacheTest, KeysCountAgainstTheByteBound) {
  // Entries that ship no rows but key on large batches: the key is held by
  // value, so it must be charged, or residency grows past the bound unseen.
  SourceCacheOptions options;
  options.capacity_bytes = 16 * 1024;
  SourceOperationCache cache(options);
  for (int i = 0; i < 64; ++i) {
    exec::BindingBatch batch({0});
    for (int j = 0; j < 100; ++j) {
      batch.Add({datalog::Term::Constant("k" + std::to_string(i) + "_" +
                                         std::to_string(j))});
    }
    bool leader = false;
    ASSERT_FALSE(cache.Acquire("s0", batch, &leader).has_value());
    ASSERT_TRUE(leader);
    cache.Publish("s0", batch, Rows{});
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LT(stats.resident_entries, 64);
  EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
  // Each resident key holds 100 bound values of at least 16 bytes each.
  EXPECT_GE(stats.resident_bytes, stats.resident_entries * 100 * 16);
}

TEST(SourceCacheTest, UnboundedCapacityNeverEvicts) {
  SourceCacheOptions options;
  options.capacity_bytes = 0;  // <= 0 = unbounded
  SourceOperationCache cache(options);
  for (int i = 0; i < 64; ++i) {
    bool leader = false;
    const std::string value = "v" + std::to_string(i);
    ASSERT_FALSE(cache.Acquire("s0", MakeBatch(value), &leader).has_value());
    cache.Publish("s0", MakeBatch(value), MakeRows(value, 8));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.resident_entries, 64);
}

}  // namespace
}  // namespace planorder::cluster
