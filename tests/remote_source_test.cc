#include "runtime/remote_source.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/term.h"
#include "exec/binding_batch.h"
#include "exec/source_access.h"
#include "runtime/retry_policy.h"
#include "runtime/source_result_cache.h"
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

/// A result cache holding one resident entry: every Acquire hits with
/// `rows`. Counts the protocol calls it receives.
class ResidentCache : public SourceResultCache {
 public:
  explicit ResidentCache(std::vector<std::vector<Term>> rows)
      : rows_(std::move(rows)) {}

  std::optional<std::vector<std::vector<Term>>> Acquire(
      const std::string& source_name, const exec::BindingBatch& batch,
      bool* leader) override {
    ++acquires;
    last_source = source_name;
    last_batch = batch;
    *leader = false;
    return rows_;
  }
  void Publish(const std::string&, const exec::BindingBatch&,
               const std::vector<std::vector<Term>>&) override {
    ++publishes;
  }
  void Abort(const std::string&, const exec::BindingBatch&) override {
    ++aborts;
  }

  int acquires = 0;
  int publishes = 0;
  int aborts = 0;
  std::string last_source;
  exec::BindingBatch last_batch;

 private:
  std::vector<std::vector<Term>> rows_;
};

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

  static exec::BindingBatch ActorBatch(const char* actor) {
    exec::BindingBatch batch({0});
    batch.Add({Term::Constant(actor)});
    return batch;
  }
  static exec::BindingBatch FordBatch() { return ActorBatch("ford"); }

  exec::SourceRegistry registry_;
};

TEST_F(RemoteSourceTest, PassesThroughWhenModelIsQuiet) {
  RemoteRegistry remotes = MakeRemotes(7);
  RemoteSource* v = remotes.Find("v");
  ASSERT_NE(v, nullptr);
  RecordingSink sink;
  v->set_trace_sink(&sink);
  exec::RuntimeAccounting call;
  auto rows = v->FetchBatch(FordBatch(), RetryPolicy{}, &call);
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
  exec::RuntimeAccounting call;
  auto rows = remotes.Find("v")->FetchBatch(FordBatch(), retry, &call);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_EQ(call.retries, call.transient_failures);
  EXPECT_GE(call.retries, 0);
}

TEST_F(RemoteSourceTest, RetriesExhaustedYieldsUnavailable) {
  RemoteRegistry remotes = MakeRemotes(11);
  NetworkModel model;
  model.transient_failure_rate = 1.0;  // every attempt fails
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  exec::RuntimeAccounting call;
  auto rows = remotes.Find("v")->FetchBatch(FordBatch(), retry, &call);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.transient_failures, 3);
  EXPECT_EQ(call.retries, 2);  // backoffs between the three attempts
}

TEST_F(RemoteSourceTest, PermanentFailureFailsFastWithoutRetries) {
  RemoteRegistry remotes = MakeRemotes(11);
  NetworkModel model;
  model.permanently_failed = true;
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  RecordingSink sink;
  remotes.set_trace_sink(&sink);
  exec::RuntimeAccounting call;
  auto rows = remotes.Find("v")->FetchBatch(FordBatch(), RetryPolicy{}, &call);
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
    RemoteRegistry remotes = MakeRemotes(99);
    NetworkModel model = slow;
    model.hedge_delay_ms = hedge_delay;
    [&] { ASSERT_TRUE(remotes.Configure("v", model).ok()); }();
    // Several distinct calls to spread over the jitter distribution.
    exec::RuntimeAccounting calls;
    for (const char* actor : {"ford", "kate", "nobody"}) {
      auto rows = remotes.Find("v")->FetchBatch(ActorBatch(actor),
                                                RetryPolicy{}, &calls);
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

TEST_F(RemoteSourceTest, CacheHitReturnsPublishedRowsFreeOfCharge) {
  // A network on which every uncached call pays latency and fails: only the
  // hit path can return rows, and it must charge nothing.
  RemoteRegistry remotes = MakeRemotes(7);
  NetworkModel model;
  model.base_latency_ms = 10.0;
  model.transient_failure_rate = 1.0;
  ASSERT_TRUE(remotes.Configure("v", model).ok());
  // Rows the source does not hold, so they can only come from the cache.
  const std::vector<std::vector<Term>> published = {
      {Term::Constant("ford"), Term::Constant("m9")}};
  ResidentCache cache(published);
  RecordingSink sink;
  RemoteSource* v = remotes.Find("v");
  v->set_result_cache(&cache);
  v->set_trace_sink(&sink);

  exec::RuntimeAccounting call;
  auto rows = v->FetchBatch(FordBatch(), RetryPolicy{}, &call);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, published);
  EXPECT_EQ(cache.acquires, 1);
  EXPECT_EQ(cache.last_source, "v");
  EXPECT_EQ(cache.last_batch, FordBatch());
  EXPECT_EQ(cache.publishes, 0);
  EXPECT_EQ(cache.aborts, 0);

  EXPECT_EQ(call.source_cache_hits, 1);
  EXPECT_EQ(call.latency_ms_total, 0.0);
  EXPECT_EQ(call.latency_ms_max, 0.0);
  EXPECT_EQ(call.retries, 0);
  EXPECT_EQ(call.transient_failures, 0);
  EXPECT_EQ(call.permanent_failures, 0);
  EXPECT_EQ(call.hedged_calls, 0);
  // A resident operation reveals nothing about the source: no observation.
  EXPECT_TRUE(sink.observations.empty());
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
