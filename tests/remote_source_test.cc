#include "runtime/remote_source.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/term.h"
#include "exec/binding_batch.h"
#include "exec/source_access.h"
#include "runtime/retry_policy.h"
#include "runtime/trace_sink.h"

namespace planorder::runtime {
namespace {

using datalog::Term;

/// Keeps every observation it is sent (the tests call from one thread).
class RecordingSink : public SourceTraceSink {
 public:
  void RecordFetch(const std::string& source_name,
                   const SourceObservation& observation) override {
    sources.push_back(source_name);
    observations.push_back(observation);
  }

  std::vector<std::string> sources;
  std::vector<SourceObservation> observations;
};

/// One source v(actor, movie) holding a few tuples.
class RemoteSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        source_.Add({Term::Constant("ford"), Term::Constant("m1")}).ok());
    ASSERT_TRUE(
        source_.Add({Term::Constant("ford"), Term::Constant("m2")}).ok());
    ASSERT_TRUE(
        source_.Add({Term::Constant("kate"), Term::Constant("m3")}).ok());
  }

  /// A remote view of v with sleeping disabled (logic tests need no wall
  /// clock).
  RemoteSource MakeRemote(uint64_t seed, const NetworkModel& model = {},
                          SourceTraceSink* sink = nullptr) {
    return RemoteSource(&source_, seed, model, /*time_dilation=*/0.0,
                        /*clock=*/nullptr, sink);
  }

  static exec::BindingBatch ActorBatch(const char* actor) {
    exec::BindingBatch batch({0});
    batch.Add({Term::Constant(actor)});
    return batch;
  }
  static exec::BindingBatch FordBatch() { return ActorBatch("ford"); }

  exec::AccessibleSource source_{"v", 2};
};

TEST_F(RemoteSourceTest, PassesThroughWhenModelIsQuiet) {
  RecordingSink sink;
  RemoteSource v = MakeRemote(7, {}, &sink);
  exec::RuntimeAccounting call;
  auto rows = v.FetchBatch(FordBatch(), RetryPolicy{}, &call);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_EQ(call.retries, 0);
  EXPECT_EQ(call.transient_failures, 0);
  EXPECT_EQ(call.permanent_failures, 0);
  // The one attempt reached the underlying source and shipped its rows.
  ASSERT_EQ(sink.observations.size(), 1u);
  EXPECT_EQ(sink.sources[0], "v");
  EXPECT_EQ(sink.observations[0].rows, 2);
  EXPECT_EQ(sink.observations[0].attempts, 1);
  EXPECT_EQ(sink.observations[0].failures, 0);
  EXPECT_FALSE(sink.observations[0].call_failed);
}

TEST_F(RemoteSourceTest, LatencyModelIsAffineInWorkShipped) {
  NetworkModel model;
  model.base_latency_ms = 10.0;
  model.per_binding_latency_ms = 2.0;
  model.per_tuple_latency_ms = 1.0;
  RemoteSource v = MakeRemote(7, model);
  exec::RuntimeAccounting call;
  auto rows = v.FetchBatch(FordBatch(), RetryPolicy{}, &call);
  ASSERT_TRUE(rows.ok());
  // 10 (base) + 2*1 (bindings) + 1*2 (tuples) with zero jitter.
  EXPECT_DOUBLE_EQ(call.latency_ms_total, 14.0);
  EXPECT_DOUBLE_EQ(call.latency_ms_max, 14.0);
}

TEST_F(RemoteSourceTest, SameSeedSameBehaviorDifferentSeedDiverges) {
  NetworkModel model;
  model.base_latency_ms = 10.0;
  model.latency_jitter = 0.8;
  model.transient_failure_rate = 0.3;
  RetryPolicy retry;
  retry.max_attempts = 20;

  auto run = [&](uint64_t seed) {
    RemoteSource v = MakeRemote(seed, model);
    exec::RuntimeAccounting call;
    auto rows = v.FetchBatch(FordBatch(), retry, &call);
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
  NetworkModel model;
  model.transient_failure_rate = 0.6;
  RemoteSource v = MakeRemote(11, model);
  RetryPolicy retry;
  retry.max_attempts = 64;  // virtually certain recovery at rate 0.6
  exec::RuntimeAccounting call;
  auto rows = v.FetchBatch(FordBatch(), retry, &call);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_EQ(call.retries, call.transient_failures);
  EXPECT_GE(call.retries, 0);
}

TEST_F(RemoteSourceTest, RetriesExhaustedYieldsUnavailable) {
  NetworkModel model;
  model.transient_failure_rate = 1.0;  // every attempt fails
  RemoteSource v = MakeRemote(11, model);
  RetryPolicy retry;
  retry.max_attempts = 3;
  exec::RuntimeAccounting call;
  auto rows = v.FetchBatch(FordBatch(), retry, &call);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.transient_failures, 3);
  EXPECT_EQ(call.retries, 2);  // backoffs between the three attempts
}

TEST_F(RemoteSourceTest, PermanentFailureFailsFastWithoutRetries) {
  NetworkModel model;
  model.permanently_failed = true;
  RecordingSink sink;
  RemoteSource v = MakeRemote(11, model, &sink);
  exec::RuntimeAccounting call;
  auto rows = v.FetchBatch(FordBatch(), RetryPolicy{}, &call);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.permanent_failures, 1);
  EXPECT_EQ(call.retries, 0);
  // One failed attempt that never reached the underlying source: nothing
  // shipped and no latency paid.
  ASSERT_EQ(sink.observations.size(), 1u);
  EXPECT_TRUE(sink.observations[0].call_failed);
  EXPECT_EQ(sink.observations[0].attempts, 1);
  EXPECT_EQ(sink.observations[0].failures, 1);
  EXPECT_EQ(sink.observations[0].rows, 0);
  EXPECT_EQ(sink.observations[0].latency_micros, 0);
}

TEST_F(RemoteSourceTest, HedgingNeverSlowsACallDown) {
  NetworkModel slow;
  slow.base_latency_ms = 50.0;
  slow.latency_jitter = 0.9;
  auto total = [&](double hedge_delay) {
    NetworkModel model = slow;
    model.hedge_delay_ms = hedge_delay;
    RemoteSource v = MakeRemote(99, model);
    // Several distinct calls to spread over the jitter distribution.
    exec::RuntimeAccounting calls;
    for (const char* actor : {"ford", "kate", "nobody"}) {
      auto rows = v.FetchBatch(ActorBatch(actor), RetryPolicy{}, &calls);
      [&] { ASSERT_TRUE(rows.ok()); }();
    }
    return std::pair(calls.latency_ms_total, calls.hedged_calls);
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

}  // namespace
}  // namespace planorder::runtime
