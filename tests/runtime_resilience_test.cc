/// End-to-end tests of the resilient concurrent source-access runtime
/// (src/runtime/): the parallel dependent-join path must be answer- and
/// step-equivalent to the serial mediator under a quiet (and even a noisy but
/// transient) network, deterministic from its seed, and must degrade
/// gracefully — not abort — when a source dies permanently.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/observed_stats.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "cluster/source_cache.h"
#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/dependent_join.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "reformulation/bucket.h"
#include "runtime/source_result_cache.h"
#include "runtime/source_runtime.h"
#include "runtime/thread_pool.h"
#include "utility/coverage_model.h"

namespace planorder::runtime {
namespace {

using datalog::ParseRule;
using datalog::Term;

/// The Figure 1 movie workload of the paper (see integration_movie_test.cc),
/// set up for mediation: catalog + six incomplete sources + statistics.
class MovieRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.schema().AddRelation("play-in", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("review-of", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("american", 1).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("russian", 1).ok());
    for (const char* text : {
             "v1(A,M) :- play-in(A,M), american(M)",
             "v2(A,M) :- play-in(A,M), russian(M)",
             "v3(A,M) :- play-in(A,M)",
             "v4(R,M) :- review-of(R,M)",
             "v5(R,M) :- review-of(R,M)",
             "v6(R,M) :- review-of(R,M)",
         }) {
      ASSERT_TRUE(catalog_.AddSourceFromText(text).ok());
    }
    auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
    ASSERT_TRUE(q.ok());
    query_ = *q;

    for (const char* name : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
      ASSERT_TRUE(registry_.Register(name, 2).ok());
    }
    auto materialize = [&](const char* source, const char* a, const char* b) {
      exec::AccessibleSource* s = registry_.Find(source);
      ASSERT_NE(s, nullptr);
      ASSERT_TRUE(s->Add({Term::Constant(a), Term::Constant(b)}).ok());
    };
    materialize("v1", "ford", "witness");
    materialize("v1", "ford", "air force one");
    materialize("v2", "ford", "anastasia");
    materialize("v3", "ford", "witness");
    materialize("v3", "ford", "sabrina");
    materialize("v3", "kate", "titanic");
    materialize("v4", "r1", "witness");
    materialize("v4", "r3", "sabrina");
    materialize("v5", "r2", "witness");
    materialize("v5", "r4", "air force one");
    materialize("v6", "r5", "anastasia");
    materialize("v6", "r1", "witness");

    auto buckets = reformulation::BuildBuckets(query_, catalog_);
    ASSERT_TRUE(buckets.ok());
    buckets_ = std::move(*buckets);
    std::vector<std::vector<stats::SourceStats>> stats(2);
    const double cardinalities[] = {2, 1, 3, 2, 2, 2};
    const double alphas[] = {0.3, 0.5, 0.2, 0.1, 0.4, 0.25};
    for (size_t b = 0; b < 2; ++b) {
      for (size_t i = 0; i < buckets_.buckets[b].size(); ++i) {
        stats::SourceStats s;
        const int id = buckets_.buckets[b][i];
        s.cardinality = cardinalities[id];
        s.transmission_cost = alphas[id];
        s.failure_prob = 0.1;
        s.regions.bits = uint64_t{1} << i;
        stats[b].push_back(s);
      }
    }
    auto workload = stats::Workload::FromParts(
        stats,
        {std::vector<double>(3, 1.0 / 3), std::vector<double>(3, 1.0 / 3)},
        5.0, {10.0, 10.0});
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  exec::Mediator MakeMediator() {
    return exec::Mediator(&catalog_, query_, buckets_.buckets);
  }

  /// Serial reference: the classic dependent-join mediator run.
  exec::MediatorResult SerialRun(int max_plans) {
    utility::CoverageModel model(&workload_);
    auto orderer = core::MakeOrderer(
        {}, &workload_, &model, {core::PlanSpace::FullSpace(workload_)});
    EXPECT_TRUE(orderer.ok());
    exec::Mediator mediator = MakeMediator();
    auto result =
        mediator.Run(**orderer, {.max_plans = max_plans},
                     *exec::MakeDependentJoinExecutor(&registry_));
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  }

  /// Runtime path with the given options.
  exec::MediatorResult RuntimeRun(int max_plans, RuntimeOptions options) {
    utility::CoverageModel model(&workload_);
    auto orderer = core::MakeOrderer(
        {}, &workload_, &model, {core::PlanSpace::FullSpace(workload_)});
    EXPECT_TRUE(orderer.ok());
    exec::Mediator mediator = MakeMediator();
    SourceRuntime runtime(&registry_, options);
    exec::Mediator::RunLimits limits;
    limits.max_plans = max_plans;
    auto result = mediator.Run(**orderer, limits, runtime);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  }

  static void ExpectSameSteps(const exec::MediatorResult& a,
                              const exec::MediatorResult& b) {
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].plan, b.steps[i].plan) << "step " << i;
      EXPECT_EQ(a.steps[i].sound, b.steps[i].sound) << "step " << i;
      EXPECT_EQ(a.steps[i].answers_from_plan, b.steps[i].answers_from_plan)
          << "step " << i;
      EXPECT_EQ(a.steps[i].new_answers, b.steps[i].new_answers) << "step " << i;
      EXPECT_EQ(a.steps[i].total_answers, b.steps[i].total_answers)
          << "step " << i;
    }
    EXPECT_EQ(a.total_answers, b.total_answers);
  }

  /// Quiet network, sleeping disabled: pure concurrency, no faults.
  static RuntimeOptions QuietOptions(int threads) {
    RuntimeOptions options;
    options.num_threads = threads;
    options.time_dilation = 0.0;
    return options;
  }

  datalog::Catalog catalog_;
  datalog::ConjunctiveQuery query_;
  exec::SourceRegistry registry_;
  reformulation::BucketResult buckets_;
  stats::Workload workload_;
};

TEST_F(MovieRuntimeTest, RuntimePathMatchesSerialMediator) {
  // The acceptance bar of the runtime: with the same seed the concurrent
  // path yields the identical distinct-answer set and step sequence as the
  // serial Mediator::Run on the movie workload.
  const exec::MediatorResult serial = SerialRun(9);
  const exec::MediatorResult concurrent = RuntimeRun(9, QuietOptions(4));
  ExpectSameSteps(serial, concurrent);
  EXPECT_EQ(concurrent.failed_plans, 0u);
  // The runtime path executed real source calls.
  EXPECT_GT(concurrent.source_calls, 0);
  EXPECT_GT(concurrent.tuples_shipped, 0);
}

TEST_F(MovieRuntimeTest, TransientFaultsAreAbsorbedByRetries) {
  // A noisy but transiently-failing network with enough retry budget loses
  // no plan: the answer stream is still identical to the serial run.
  const exec::MediatorResult serial = SerialRun(9);
  RuntimeOptions options = QuietOptions(4);
  options.seed = 1234;
  options.default_model.base_latency_ms = 5.0;
  options.default_model.per_binding_latency_ms = 1.0;
  options.default_model.latency_jitter = 0.5;
  options.default_model.transient_failure_rate = 0.4;
  options.retry.max_attempts = 64;
  const exec::MediatorResult concurrent = RuntimeRun(9, options);
  ExpectSameSteps(serial, concurrent);
  EXPECT_EQ(concurrent.failed_plans, 0u);
  EXPECT_GT(concurrent.runtime.transient_failures, 0);
  EXPECT_EQ(concurrent.runtime.retries,
            concurrent.runtime.transient_failures);
  EXPECT_GT(concurrent.runtime.latency_ms_total, 0.0);
  EXPECT_GT(concurrent.runtime.latency_ms_max, 0.0);
}

TEST_F(MovieRuntimeTest, SameSeedReplaysBitIdentically) {
  RuntimeOptions options = QuietOptions(8);
  options.seed = 777;
  options.default_model.base_latency_ms = 3.0;
  options.default_model.latency_jitter = 0.9;
  options.default_model.transient_failure_rate = 0.3;
  options.retry.max_attempts = 64;
  const exec::MediatorResult a = RuntimeRun(9, options);
  const exec::MediatorResult b = RuntimeRun(9, options);
  ExpectSameSteps(a, b);
  EXPECT_EQ(a.runtime.retries, b.runtime.retries);
  EXPECT_EQ(a.runtime.transient_failures, b.runtime.transient_failures);
  EXPECT_EQ(a.runtime.hedged_calls, b.runtime.hedged_calls);
  EXPECT_DOUBLE_EQ(a.runtime.latency_ms_total, b.runtime.latency_ms_total);
  EXPECT_DOUBLE_EQ(a.runtime.latency_ms_max, b.runtime.latency_ms_max);
}

TEST_F(MovieRuntimeTest, PermanentSourceFailureDegradesGracefully) {
  // Kill v4 for the whole run: the three plans using it must come back as
  // failed steps (discarded like unsound plans), while every other plan
  // still contributes its answers — the run completes instead of erroring.
  const exec::MediatorResult serial = SerialRun(9);
  RuntimeOptions options = QuietOptions(4);
  options.retry.max_attempts = 2;

  utility::CoverageModel model(&workload_);
  auto orderer = core::MakeOrderer(
      {}, &workload_, &model, {core::PlanSpace::FullSpace(workload_)});
  ASSERT_TRUE(orderer.ok());
  exec::Mediator mediator = MakeMediator();
  SourceRuntime runtime(&registry_, options);
  NetworkModel dead;
  dead.permanently_failed = true;
  ASSERT_TRUE(runtime.Configure("v4", dead).ok());
  exec::Mediator::RunLimits limits;
  limits.max_plans = 9;
  auto result = mediator.Run(**orderer, limits, runtime);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->steps.size(), 9u);
  EXPECT_EQ(result->failed_plans, 3u);  // v4 appears in 3 of the 9 plans
  size_t failed = 0;
  for (const exec::MediatorStep& step : result->steps) {
    if (step.failed) {
      ++failed;
      EXPECT_EQ(step.answers_from_plan, 0u);
      EXPECT_NE(step.failure_reason.find("v4"), std::string::npos)
          << step.failure_reason;
    }
  }
  EXPECT_EQ(failed, 3u);
  EXPECT_GT(result->runtime.permanent_failures, 0);
  // Still collected every answer reachable without v4 — and losing one
  // review source must not erase the whole answer set.
  EXPECT_GT(result->total_answers, 0u);
  EXPECT_LE(result->total_answers, serial.total_answers);
}

/// The observe edge of the adaptive loop, teed: every observation the
/// runtime reports goes on into an adaptive::ObservedStats and into integer
/// per-source totals the tests check against the plan-local accounting.
class TeeSink : public SourceTraceSink {
 public:
  struct Totals {
    int64_t calls = 0;
    int64_t failed_calls = 0;
    int64_t rows = 0;
    int64_t attempts = 0;
    int64_t failures = 0;
  };

  explicit TeeSink(adaptive::ObservedStats* observed) : observed_(observed) {}

  void RecordFetch(const std::string& source_name,
                   const SourceObservation& observation) override {
    {
      MutexLock lock(mu_);
      Totals& t = totals_[source_name];
      ++t.calls;
      if (observation.call_failed) ++t.failed_calls;
      t.rows += observation.rows;
      t.attempts += observation.attempts;
      t.failures += observation.failures;
    }
    observed_->RecordFetch(source_name, observation);
  }

  std::map<std::string, Totals> totals() const {
    MutexLock lock(mu_);
    return totals_;
  }

  Totals Sum() const {
    Totals sum;
    for (const auto& [unused, t] : totals()) {
      sum.calls += t.calls;
      sum.failed_calls += t.failed_calls;
      sum.rows += t.rows;
      sum.attempts += t.attempts;
      sum.failures += t.failures;
    }
    return sum;
  }

 private:
  adaptive::ObservedStats* observed_;
  mutable Mutex mu_;
  std::map<std::string, Totals> totals_ GUARDED_BY(mu_);
};

/// The nine two-atom plans of the movie query: an actor source (v1-v3)
/// joined with a review source (v4-v6).
std::vector<datalog::ConjunctiveQuery> MoviePlans() {
  std::vector<datalog::ConjunctiveQuery> plans;
  for (const char* actors : {"v1", "v2", "v3"}) {
    for (const char* reviews : {"v4", "v5", "v6"}) {
      auto plan = ParseRule(std::string("q(M,R) :- ") + actors +
                            "(ford,M), " + reviews + "(R,M)");
      EXPECT_TRUE(plan.ok()) << plan.status();
      plans.push_back(*plan);
    }
  }
  return plans;
}

/// Transient faults with too few attempts to always recover, and v4
/// permanently dead. One partition per call, so every logical call is one
/// observation and one trace entry.
RuntimeOptions FaultyOptions(int threads) {
  RuntimeOptions options;
  options.num_threads = threads;
  options.max_partitions_per_call = 1;
  options.time_dilation = 0.0;
  options.seed = 5;
  options.default_model.base_latency_ms = 2.0;
  options.default_model.latency_jitter = 0.5;
  options.default_model.transient_failure_rate = 0.35;
  options.retry.max_attempts = 2;
  return options;
}

void KillV4(SourceRuntime& runtime) {
  NetworkModel dead;
  dead.permanently_failed = true;
  ASSERT_TRUE(runtime.Configure("v4", dead).ok());
}

/// Plan-local accounting summed over every plan of `plans`.
struct PlanTotals {
  int64_t source_calls = 0;  // successful calls, cache hits included
  int64_t tuples_shipped = 0;
  int64_t failed_plans = 0;
  exec::RuntimeAccounting runtime;
};

PlanTotals ExecuteAll(SourceRuntime& runtime,
                      const std::vector<datalog::ConjunctiveQuery>& plans) {
  PlanTotals totals;
  for (const datalog::ConjunctiveQuery& plan : plans) {
    auto exec = runtime.ExecutePlan(plan);
    EXPECT_TRUE(exec.ok()) << exec.status();
    totals.source_calls += exec->source_calls;
    totals.tuples_shipped += exec->tuples_shipped;
    if (exec->failed) ++totals.failed_plans;
    totals.runtime.Merge(exec->runtime);
  }
  return totals;
}

TEST_F(MovieRuntimeTest, TraceSinkSeesEveryLogicalCallOnce) {
  adaptive::ObservedStats observed;
  TeeSink sink(&observed);
  RuntimeOptions options = FaultyOptions(4);
  options.trace_sink = &sink;
  SourceRuntime runtime(&registry_, options);
  KillV4(runtime);
  const PlanTotals plans = ExecuteAll(runtime, MoviePlans());

  // One observation per logical call: the successful ones are exactly the
  // trace's calls, and a failed plan stopped at exactly one failed call.
  const TeeSink::Totals all = sink.Sum();
  EXPECT_EQ(all.calls - all.failed_calls, plans.source_calls);
  EXPECT_EQ(all.failed_calls, plans.failed_plans);
  EXPECT_EQ(all.rows, plans.tuples_shipped);
  EXPECT_EQ(all.attempts - all.calls, plans.runtime.retries);
  EXPECT_EQ(all.failures, plans.runtime.transient_failures +
                              plans.runtime.permanent_failures);
  EXPECT_GT(plans.runtime.transient_failures, 0);

  // The dead source fails every call it gets, shipping nothing.
  const TeeSink::Totals v4 = sink.totals()["v4"];
  EXPECT_GT(v4.calls, 0);
  EXPECT_EQ(v4.failed_calls, v4.calls);
  EXPECT_EQ(v4.calls, plans.runtime.permanent_failures);
  EXPECT_EQ(v4.rows, 0);

  // The same calls fold into the learned statistics.
  EXPECT_GT(observed.FoldWindow(), 0);
  for (const auto& [name, t] : sink.totals()) {
    EXPECT_EQ(observed.EstimateFor(name).calls, t.calls) << name;
  }
  const adaptive::SourceEstimate dead = observed.EstimateFor("v4");
  EXPECT_EQ(dead.card_windows, 0);  // no successful call, no cardinality
  EXPECT_EQ(dead.failure_prob, 1.0);
}

TEST_F(MovieRuntimeTest, TraceSinkSkipsCacheHits) {
  adaptive::ObservedStats observed;
  TeeSink sink(&observed);
  cluster::SourceOperationCache cache;
  RuntimeOptions options = FaultyOptions(2);
  options.trace_sink = &sink;
  options.source_cache = &cache;
  SourceRuntime runtime(&registry_, options);
  KillV4(runtime);
  // The second pass finds every successful call of the first resident.
  PlanTotals plans = ExecuteAll(runtime, MoviePlans());
  const PlanTotals again = ExecuteAll(runtime, MoviePlans());
  plans.source_calls += again.source_calls;
  plans.failed_plans += again.failed_plans;
  plans.runtime.Merge(again.runtime);

  EXPECT_GT(again.runtime.source_cache_hits, 0);
  const TeeSink::Totals all = sink.Sum();
  EXPECT_EQ(all.calls - all.failed_calls,
            plans.source_calls - plans.runtime.source_cache_hits);
  EXPECT_EQ(all.failed_calls, plans.failed_plans);
}

TEST_F(MovieRuntimeTest, ObservedFoldIsIndependentOfPoolThreads) {
  // The determinism claim of adaptive/observed_stats.h: RecordFetch is
  // integer-only, so the fold is a function of the observation multiset,
  // never of the interleaving. Plans run as concurrent pool tasks, and the
  // concurrent run submits them in reverse, so the two runs share only the
  // multiset. One partition per call keeps the multiset itself independent
  // of the pool size (partitioning changes the calls, and with them the
  // draws).
  auto fold = [this](int threads, bool reversed) {
    adaptive::ObservedStats observed;
    RuntimeOptions options = FaultyOptions(threads);
    options.trace_sink = &observed;
    SourceRuntime runtime(&registry_, options);
    KillV4(runtime);
    std::vector<datalog::ConjunctiveQuery> plans = MoviePlans();
    if (reversed) std::reverse(plans.begin(), plans.end());
    {
      TaskGroup group(&runtime.pool());
      for (int round = 0; round < 3; ++round) {
        for (const datalog::ConjunctiveQuery& plan : plans) {
          group.Submit([&runtime, &plan] {
            auto exec = runtime.ExecutePlan(plan);
            EXPECT_TRUE(exec.ok()) << exec.status();
          });
        }
      }
      group.Wait();
    }
    observed.FoldWindow();
    return observed.Snapshot();
  };
  const auto serial = fold(1, /*reversed=*/false);
  const auto concurrent = fold(4, /*reversed=*/true);
  ASSERT_EQ(serial.size(), concurrent.size());
  ASSERT_FALSE(serial.empty());
  for (size_t i = 0; i < serial.size(); ++i) {
    const auto& [name, a] = serial[i];
    const auto& [other, b] = concurrent[i];
    ASSERT_EQ(name, other);
    EXPECT_EQ(a.windows, b.windows) << name;
    EXPECT_EQ(a.card_windows, b.card_windows) << name;
    EXPECT_EQ(a.calls, b.calls) << name;
    // Bit-exact, not within a tolerance.
    EXPECT_EQ(a.cardinality, b.cardinality) << name;
    EXPECT_EQ(a.latency_ms, b.latency_ms) << name;
    EXPECT_EQ(a.failure_prob, b.failure_prob) << name;
  }
}

TEST_F(MovieRuntimeTest, ParallelJoinPreservesSerialRowOrder) {
  // The partitioned batch fetch must reproduce the serial batch's row
  // sequence exactly (contiguous chunks concatenated in chunk order).
  auto plan = ParseRule("q(M,R) :- v3(A,M), v4(R,M)");
  ASSERT_TRUE(plan.ok());
  exec::ExecutionTrace serial_trace;
  auto serial = exec::ExecutePlanDependent(*plan, registry_, &serial_trace);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial_trace.TotalCalls(), 2);

  SourceRuntime runtime(&registry_, QuietOptions(4));
  auto parallel = runtime.ExecutePlan(*plan);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_FALSE(parallel->failed);
  EXPECT_EQ(*serial, parallel->tuples);  // same answers, same order
  // v3 ships 3 distinct movies to v4: split across several partition calls,
  // each counted as one source call, shipping the serial batch's rows.
  EXPECT_GT(parallel->source_calls, serial_trace.TotalCalls());
  EXPECT_EQ(parallel->tuples_shipped, serial_trace.TotalTuplesShipped());
}

/// A result cache that either holds one resident entry — every Acquire
/// hits with `rows` — or holds nothing, so every Acquire misses and elects
/// the caller leader. Records the protocol calls it receives.
class ResidentCache : public SourceResultCache {
 public:
  using Rows = std::vector<std::vector<Term>>;

  explicit ResidentCache(std::optional<Rows> rows = std::nullopt)
      : rows_(std::move(rows)) {}

  std::optional<Rows> Acquire(const std::string& source_name,
                              const exec::BindingBatch& batch,
                              bool* leader) override {
    acquires.emplace_back(source_name, batch);
    *leader = !rows_.has_value();
    return rows_;
  }
  void Publish(const std::string& source_name,
               const exec::BindingBatch& batch, const Rows& rows) override {
    publishes.emplace_back(source_name, batch, rows);
  }
  void Abort(const std::string&, const exec::BindingBatch&) override {
    ++aborts;
  }

  std::vector<std::pair<std::string, exec::BindingBatch>> acquires;
  std::vector<std::tuple<std::string, exec::BindingBatch, Rows>> publishes;
  int aborts = 0;

 private:
  std::optional<Rows> rows_;
};

TEST_F(MovieRuntimeTest, CacheHitReturnsPublishedRowsFreeOfCharge) {
  // A network on which every uncached call pays latency and fails: only the
  // hit path can return rows, and it must charge nothing.
  adaptive::ObservedStats observed;
  TeeSink sink(&observed);
  // Rows v3 does not hold, so they can only come from the cache.
  ResidentCache cache(ResidentCache::Rows{
      {Term::Constant("ford"), Term::Constant("m9")}});
  RuntimeOptions options = QuietOptions(4);
  options.default_model.base_latency_ms = 10.0;
  options.default_model.transient_failure_rate = 1.0;
  options.source_cache = &cache;
  options.trace_sink = &sink;
  SourceRuntime runtime(&registry_, options);

  auto plan = ParseRule("q(M) :- v3(ford,M)");
  ASSERT_TRUE(plan.ok());
  auto exec = runtime.ExecutePlan(*plan);
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_FALSE(exec->failed) << exec->failure_reason;
  EXPECT_EQ(exec->tuples,
            (std::vector<std::vector<Term>>{{Term::Constant("m9")}}));
  exec::BindingBatch ford({0});
  ford.Add({Term::Constant("ford")});
  ASSERT_EQ(cache.acquires.size(), 1u);
  EXPECT_EQ(cache.acquires[0].first, "v3");
  EXPECT_EQ(cache.acquires[0].second, ford);
  EXPECT_TRUE(cache.publishes.empty());
  EXPECT_EQ(cache.aborts, 0);

  EXPECT_EQ(exec->source_calls, 1);
  EXPECT_EQ(exec->runtime.source_cache_hits, 1);
  EXPECT_EQ(exec->runtime.latency_ms_total, 0.0);
  EXPECT_EQ(exec->runtime.latency_ms_max, 0.0);
  EXPECT_EQ(exec->runtime.retries, 0);
  EXPECT_EQ(exec->runtime.transient_failures, 0);
  EXPECT_EQ(exec->runtime.permanent_failures, 0);
  EXPECT_EQ(exec->runtime.hedged_calls, 0);
  // A resident operation reveals nothing about the source: no observation.
  EXPECT_EQ(sink.Sum().calls, 0);
}

TEST(SourceRuntimeCacheTest, PartitionedMissPublishesTheWholeBatchOnce) {
  // a(X) feeds eight distinct values into b(X,Y): at four threads that
  // batch goes out as four partition calls, yet the cache sees one batched
  // operation — one Acquire and one Publish of the whole batch, its rows in
  // chunk order, which is the serial FetchBatch order.
  exec::SourceRegistry registry;
  auto a = registry.Register("a", 1);
  auto b = registry.Register("b", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  exec::BindingBatch keys({0});
  for (int i = 0; i < 8; ++i) {
    const Term x = Term::Constant("x" + std::to_string(i));
    ASSERT_TRUE((*a)->Add({x}).ok());
    keys.Add({x});
    for (int j = 0; j < 2; ++j) {
      ASSERT_TRUE(
          (*b)->Add({x, Term::Constant("y" + std::to_string(i * 2 + j))})
              .ok());
    }
  }
  auto serial_rows = (*b)->FetchBatch(keys);
  ASSERT_TRUE(serial_rows.ok());

  ResidentCache cache;  // every Acquire misses
  RuntimeOptions options;
  options.num_threads = 4;
  options.time_dilation = 0.0;
  options.source_cache = &cache;
  SourceRuntime runtime(&registry, options);
  auto plan = ParseRule("q(X,Y) :- a(X), b(X,Y)");
  ASSERT_TRUE(plan.ok());
  auto exec = runtime.ExecutePlan(*plan);
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_FALSE(exec->failed) << exec->failure_reason;
  EXPECT_EQ(exec->source_calls, 1 + 4);  // a's scan, b's four partitions
  EXPECT_EQ(exec->runtime.source_cache_hits, 0);

  ASSERT_EQ(cache.acquires.size(), 2u);
  ASSERT_EQ(cache.publishes.size(), 2u);
  EXPECT_EQ(cache.aborts, 0);
  const auto& [name, batch, rows] = cache.publishes[1];
  EXPECT_EQ(name, "b");
  EXPECT_EQ(batch, keys);
  EXPECT_EQ(rows, *serial_rows);
}

TEST(SourceRuntimeTest, ConfigureOverridesOneSourceAndRejectsUnknownNames) {
  exec::SourceRegistry registry;
  ASSERT_TRUE(registry.Register("a", 1).ok());
  ASSERT_TRUE(registry.Register("b", 1).ok());
  RuntimeOptions options;
  options.num_threads = 1;
  options.time_dilation = 0.0;
  SourceRuntime runtime(&registry, options);
  NetworkModel dead;
  dead.permanently_failed = true;
  EXPECT_EQ(runtime.Configure("nope", dead).code(), StatusCode::kNotFound);
  ASSERT_TRUE(runtime.Configure("a", dead).ok());

  auto on_a = ParseRule("q(X) :- a(X)");
  auto on_b = ParseRule("q(X) :- b(X)");
  ASSERT_TRUE(on_a.ok() && on_b.ok());
  auto failed = runtime.ExecutePlan(*on_a);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_TRUE(failed->failed);
  EXPECT_EQ(failed->runtime.permanent_failures, 1);
  auto served = runtime.ExecutePlan(*on_b);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_FALSE(served->failed);
}

/// Passes plans through to `inner`, keeping each one's execution facts.
class RecordingExecutor : public exec::PlanExecutor {
 public:
  /// What the tests compare of one PlanExecution: its trace's calls and
  /// shipped tuples, then its RuntimeAccounting field by field.
  using Facts = std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t,
                           int64_t, int64_t, double, double>;

  explicit RecordingExecutor(exec::PlanExecutor* inner) : inner_(inner) {}

  StatusOr<exec::PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) override {
    auto exec = inner_->ExecutePlan(rewriting);
    if (exec.ok()) {
      const exec::RuntimeAccounting& r = exec->runtime;
      plans.emplace_back(exec->source_calls, exec->tuples_shipped, r.retries,
                         r.transient_failures, r.permanent_failures,
                         r.hedged_calls, r.source_cache_hits,
                         r.latency_ms_total, r.latency_ms_max);
    }
    return exec;
  }

  std::vector<Facts> plans;

 private:
  exec::PlanExecutor* inner_;
};

/// One full run of a 64-plan synthetic domain through a fresh SourceRuntime
/// behind a fresh byte-bounded cache: the answer steps, every plan's facts
/// and the cache's final stats.
struct CacheProbe {
  std::vector<std::tuple<utility::ConcretePlan, size_t, size_t>> steps;
  std::vector<RecordingExecutor::Facts> plans;
  SourceResultCacheStats cache;
};

CacheProbe RunCacheProbe(const exec::SyntheticDomain& d,
                         exec::SourceRegistry* registry, int threads,
                         int64_t capacity_bytes) {
  cluster::SourceCacheOptions cache_options;
  cache_options.capacity_bytes = capacity_bytes;
  cluster::SourceOperationCache cache(cache_options);
  RuntimeOptions options;
  options.num_threads = threads;
  options.time_dilation = 0.0;
  options.seed = 29;
  options.default_model.base_latency_ms = 1.0;
  options.default_model.per_binding_latency_ms = 0.25;
  options.default_model.latency_jitter = 0.5;
  options.default_model.transient_failure_rate = 0.2;
  options.retry.max_attempts = 64;
  options.source_cache = &cache;
  SourceRuntime runtime(registry, options);
  RecordingExecutor recorder(&runtime);

  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer({}, &d.workload, &model,
                                   {core::PlanSpace::FullSpace(d.workload)});
  EXPECT_TRUE(orderer.ok());
  exec::Mediator mediator(&d.catalog, d.query, d.source_ids);
  auto result = mediator.Run(**orderer, {.max_plans = 64}, recorder);
  EXPECT_TRUE(result.ok()) << result.status();

  CacheProbe probe;
  for (const exec::MediatorStep& step : result->steps) {
    probe.steps.emplace_back(step.plan, step.answers_from_plan,
                             step.total_answers);
  }
  probe.plans = std::move(recorder.plans);
  probe.cache = cache.stats();
  return probe;
}

auto CacheStatsTuple(const SourceResultCacheStats& s) {
  return std::tuple(s.hits, s.misses, s.single_flight_waits, s.insertions,
                    s.evictions, s.resident_bytes, s.resident_entries);
}

TEST(SourceRuntimeCacheTest, BoundedCacheStateIsIndependentOfPoolAndSchedule) {
  // The cache is consulted once per batch, before partitioning, so which
  // entries exist — and, under a byte bound, which are evicted — is fixed
  // by the plan sequence alone. Fresh 4-thread runtimes must agree on every
  // plan's calls, tuples and accounting and on the cache's stats, and those
  // stats must equal a 1-thread run's.
  stats::WorkloadOptions wopts;
  wopts.query_length = 3;
  wopts.bucket_size = 4;
  wopts.overlap_rate = 0.5;
  wopts.regions_per_bucket = 8;
  wopts.seed = 29;
  auto domain = exec::BuildSyntheticDomain(wopts, 200);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;
  auto registry = exec::BuildSourceRegistry(d.catalog, d.source_facts);
  ASSERT_TRUE(registry.ok()) << registry.status();
  constexpr int64_t kCapacityBytes = 50'000;

  const CacheProbe serial = RunCacheProbe(d, &*registry, 1, kCapacityBytes);
  ASSERT_EQ(serial.steps.size(), 64u);
  ASSERT_GT(serial.cache.evictions, 0);  // the bound binds
  ASSERT_GT(serial.cache.hits, 0);
  const CacheProbe first = RunCacheProbe(d, &*registry, 4, kCapacityBytes);
  EXPECT_EQ(CacheStatsTuple(first.cache), CacheStatsTuple(serial.cache));
  EXPECT_EQ(first.steps, serial.steps);
  for (int run = 1; run < 20; ++run) {
    const CacheProbe again = RunCacheProbe(d, &*registry, 4, kCapacityBytes);
    EXPECT_EQ(again.steps, first.steps) << "run " << run;
    EXPECT_EQ(again.plans, first.plans) << "run " << run;
    EXPECT_EQ(CacheStatsTuple(again.cache), CacheStatsTuple(first.cache))
        << "run " << run;
  }
}

/// Larger-scale equivalence on a generated domain, exercising real pool
/// concurrency (hundreds of binding combinations per batch).
TEST(SyntheticRuntimeTest, ParallelMediatorMatchesSerialOnSyntheticDomain) {
  stats::WorkloadOptions wopts;
  wopts.query_length = 3;
  wopts.bucket_size = 4;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 8;
  wopts.seed = 41;
  auto domain = exec::BuildSyntheticDomain(wopts, 300);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;

  auto built = exec::BuildSourceRegistry(d.catalog, d.source_facts);
  ASSERT_TRUE(built.ok()) << built.status();
  exec::SourceRegistry& registry = *built;

  exec::Mediator mediator(&d.catalog, d.query, d.source_ids);
  utility::CoverageModel model_a(&d.workload);
  auto orderer_a = core::MakeOrderer(
      {}, &d.workload, &model_a, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_a.ok());
  auto serial = mediator.Run(**orderer_a, {.max_plans = 16},
                             *exec::MakeDependentJoinExecutor(&registry));
  ASSERT_TRUE(serial.ok());

  utility::CoverageModel model_b(&d.workload);
  auto orderer_b = core::MakeOrderer(
      {}, &d.workload, &model_b, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_b.ok());
  RuntimeOptions options;
  options.num_threads = 8;
  options.time_dilation = 0.0;
  options.default_model.transient_failure_rate = 0.2;
  options.retry.max_attempts = 64;
  SourceRuntime runtime(&registry, options);
  exec::Mediator::RunLimits limits;
  limits.max_plans = 16;
  auto concurrent = mediator.Run(**orderer_b, limits, runtime);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status();

  ASSERT_EQ(serial->steps.size(), concurrent->steps.size());
  for (size_t i = 0; i < serial->steps.size(); ++i) {
    EXPECT_EQ(serial->steps[i].plan, concurrent->steps[i].plan);
    EXPECT_EQ(serial->steps[i].answers_from_plan,
              concurrent->steps[i].answers_from_plan);
    EXPECT_EQ(serial->steps[i].total_answers,
              concurrent->steps[i].total_answers);
  }
  EXPECT_EQ(serial->total_answers, concurrent->total_answers);
  EXPECT_EQ(concurrent->failed_plans, 0u);
}

}  // namespace
}  // namespace planorder::runtime
