#include "runtime/remote_source.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "datalog/term.h"
#include "exec/source_access.h"
#include "runtime/retry_policy.h"

namespace planorder::runtime {
namespace {

using datalog::Term;

/// A registry with one source v(actor, movie) holding a few tuples.
class RemoteSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto v = registry_.Register("v", 2);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(
        (*v)->Add({Term::Constant("ford"), Term::Constant("m1")}).ok());
    ASSERT_TRUE(
        (*v)->Add({Term::Constant("ford"), Term::Constant("m2")}).ok());
    ASSERT_TRUE(
        (*v)->Add({Term::Constant("kate"), Term::Constant("m3")}).ok());
  }

  /// A remote view with sleeping disabled (logic tests need no wall clock).
  RemoteRegistry MakeRemotes(uint64_t seed) {
    RemoteRegistry remotes(&registry_, seed);
    remotes.set_time_dilation(0.0);
    return remotes;
  }

  static std::vector<std::map<int, Term>> FordBatch() {
    return {{{0, Term::Constant("ford")}}};
  }

  exec::SourceRegistry registry_;
};

TEST_F(RemoteSourceTest, PassesThroughWhenModelIsQuiet) {
  RemoteRegistry remotes = MakeRemotes(7);
  RemoteSource* v = remotes.Find("v");
  ASSERT_NE(v, nullptr);
  auto rows = v->FetchBatch(FordBatch(), RetryPolicy{});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
  const exec::RuntimeAccounting stats = v->stats();
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.transient_failures, 0);
  EXPECT_EQ(stats.permanent_failures, 0);
  // Underlying access accounting still recorded.
  EXPECT_EQ(v->underlying().stats().calls, 1);
}

TEST_F(RemoteSourceTest, LatencyModelIsAffineInWorkShipped) {
  RemoteRegistry remotes = MakeRemotes(7);
  NetworkModel model;
  model.base_latency_ms = 10.0;
  model.per_binding_latency_ms = 2.0;
  model.per_tuple_latency_ms = 1.0;
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  RemoteSource* v = remotes.Find("v");
  exec::RuntimeAccounting call;
  auto rows = v->FetchBatch(FordBatch(), RetryPolicy{}, &call);
  ASSERT_TRUE(rows.ok());
  // 10 (base) + 2*1 (bindings) + 1*2 (tuples) with zero jitter.
  EXPECT_DOUBLE_EQ(call.latency_ms_total, 14.0);
  EXPECT_DOUBLE_EQ(v->stats().latency_ms_total, 14.0);
  EXPECT_DOUBLE_EQ(v->stats().latency_ms_max, 14.0);
}

TEST_F(RemoteSourceTest, SameSeedSameBehaviorDifferentSeedDiverges) {
  NetworkModel model;
  model.base_latency_ms = 10.0;
  model.latency_jitter = 0.8;
  model.transient_failure_rate = 0.3;
  RetryPolicy retry;
  retry.max_attempts = 20;

  auto run = [&](uint64_t seed) {
    RemoteRegistry remotes = MakeRemotes(seed);
    [&] { ASSERT_TRUE(remotes.Configure("v", model).ok()); }();
    exec::RuntimeAccounting call;
    auto rows = remotes.Find("v")->FetchBatch(FordBatch(), retry, &call);
    [&] { ASSERT_TRUE(rows.ok()) << rows.status(); }();
    return std::pair(call.latency_ms_total, call.transient_failures);
  };
  const auto a1 = run(42);
  const auto a2 = run(42);
  EXPECT_EQ(a1, a2);  // bit-identical replay from the seed
  const auto b = run(43);
  EXPECT_NE(a1.first, b.first);  // different seed, different latency draws
}

TEST_F(RemoteSourceTest, TransientFailuresAreRetriedToSuccess) {
  RemoteRegistry remotes = MakeRemotes(11);
  NetworkModel model;
  model.transient_failure_rate = 0.6;
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  RetryPolicy retry;
  retry.max_attempts = 64;  // virtually certain recovery at rate 0.6
  RemoteSource* v = remotes.Find("v");
  auto rows = v->FetchBatch(FordBatch(), retry);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
  const exec::RuntimeAccounting stats = v->stats();
  EXPECT_EQ(stats.retries, stats.transient_failures);
  EXPECT_GE(stats.retries, 0);
}

TEST_F(RemoteSourceTest, RetriesExhaustedYieldsUnavailable) {
  RemoteRegistry remotes = MakeRemotes(11);
  NetworkModel model;
  model.transient_failure_rate = 1.0;  // every attempt fails
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  auto rows = remotes.Find("v")->FetchBatch(FordBatch(), retry);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  const exec::RuntimeAccounting stats = remotes.TotalStats();
  EXPECT_EQ(stats.transient_failures, 3);
  EXPECT_EQ(stats.retries, 2);  // backoffs between the three attempts
}

TEST_F(RemoteSourceTest, PermanentFailureFailsFastWithoutRetries) {
  RemoteRegistry remotes = MakeRemotes(11);
  NetworkModel model;
  model.permanently_failed = true;
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  auto rows = remotes.Find("v")->FetchBatch(FordBatch(), RetryPolicy{});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  const exec::RuntimeAccounting stats = remotes.TotalStats();
  EXPECT_EQ(stats.permanent_failures, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(remotes.Find("v")->underlying().stats().calls, 0);
}

TEST_F(RemoteSourceTest, HedgingNeverSlowsACallDown) {
  NetworkModel slow;
  slow.base_latency_ms = 50.0;
  slow.latency_jitter = 0.9;
  auto total = [&](double hedge_delay) {
    RemoteRegistry remotes = MakeRemotes(99);
    NetworkModel model = slow;
    model.hedge_delay_ms = hedge_delay;
    [&] { ASSERT_TRUE(remotes.Configure("v", model).ok()); }();
    // Several distinct calls to spread over the jitter distribution.
    for (const char* actor : {"ford", "kate", "nobody"}) {
      auto rows = remotes.Find("v")->FetchBatch(
          {{{0, Term::Constant(actor)}}}, RetryPolicy{});
      [&] { ASSERT_TRUE(rows.ok()); }();
    }
    return std::pair(remotes.TotalStats().latency_ms_total,
                     remotes.TotalStats().hedged_calls);
  };
  const auto [unhedged_ms, unhedged_count] = total(0.0);
  const auto [hedged_ms, hedged_count] = total(30.0);
  EXPECT_EQ(unhedged_count, 0);
  EXPECT_GT(hedged_count, 0);  // jitter pushes some primaries past 30ms
  // Racing a backup can only improve an attempt's completion time.
  EXPECT_LE(hedged_ms, unhedged_ms);
}

TEST(RetryPolicyTest, BackoffDoublesAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1.0;
  policy.max_backoff_ms = 8.0;
  // One hash draws one jitter factor whatever the attempt, so consecutive
  // attempts compare exactly.
  for (uint64_t h = 0; h < 50; ++h) {
    const double first = policy.BackoffMs(1, h);
    EXPECT_DOUBLE_EQ(policy.BackoffMs(2, h), 2.0 * first);
    EXPECT_DOUBLE_EQ(policy.BackoffMs(3, h), 4.0 * first);
    EXPECT_DOUBLE_EQ(policy.BackoffMs(4, h), 8.0 * first);
    EXPECT_DOUBLE_EQ(policy.BackoffMs(10, h), 8.0 * first);  // capped
  }
}

TEST(RetryPolicyTest, JitterStaysWithinHalfToFullBackoff) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.max_backoff_ms = 100.0;
  double lowest = 100.0;
  for (uint64_t h = 0; h < 200; ++h) {
    const double backoff = policy.BackoffMs(1, h);
    EXPECT_GT(backoff, 50.0);
    EXPECT_LE(backoff, 100.0);
    lowest = std::min(lowest, backoff);
  }
  EXPECT_LT(lowest, 60.0);  // the jitter actually spreads over the band
  // And it is a pure function of (attempt, hash).
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1, 77), policy.BackoffMs(1, 77));
}

TEST(RemoteRegistryTest, ConfigureUnknownSourceFails) {
  exec::SourceRegistry registry;
  ASSERT_TRUE(registry.Register("a", 1).ok());
  ASSERT_TRUE(registry.Register("b", 1).ok());
  RemoteRegistry remotes(&registry, 5);
  EXPECT_EQ(remotes.Configure("nope", NetworkModel{}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(remotes.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(remotes.Find("nope"), nullptr);
}

}  // namespace
}  // namespace planorder::runtime
