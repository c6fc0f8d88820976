/// End-to-end tests of the resilient concurrent source-access runtime
/// (src/runtime/): the parallel dependent-join path must be answer- and
/// step-equivalent to the serial mediator under a quiet (and even a noisy but
/// transient) network, deterministic from its seed, and must degrade
/// gracefully — not abort — when a source dies permanently.

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/dependent_join.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "reformulation/bucket.h"
#include "runtime/parallel_join.h"
#include "runtime/source_runtime.h"
#include "utility/coverage_model.h"

namespace planorder::runtime {
namespace {

using datalog::Atom;
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
      source_db_.AddFact(Atom(source, {Term::Constant(a), Term::Constant(b)}));
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
    return exec::Mediator(&catalog_, query_, &source_db_, buckets_.buckets);
  }

  /// Serial reference: the classic dependent-join mediator run.
  exec::MediatorResult SerialRun(int max_plans) {
    utility::CoverageModel model(&workload_);
    auto orderer = core::MakeOrderer(
        {}, &workload_, &model, {core::PlanSpace::FullSpace(workload_)});
    EXPECT_TRUE(orderer.ok());
    exec::Mediator mediator = MakeMediator();
    auto result = mediator.Run(**orderer, max_plans, &registry_);
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
  datalog::Database source_db_;
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
  ASSERT_TRUE(runtime.remotes().Configure("v4", dead).ok());
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

TEST_F(MovieRuntimeTest, PlanBudgetFailsSlowPlansButRunCompletes) {
  RuntimeOptions options = QuietOptions(4);
  options.default_model.base_latency_ms = 40.0;  // every call is slow
  options.plan_budget_ms = 50.0;  // two sequential calls blow the budget
  const exec::MediatorResult result = RuntimeRun(9, options);
  EXPECT_EQ(result.steps.size(), 9u);
  EXPECT_EQ(result.failed_plans, 9u);  // every plan needs two atoms
  EXPECT_EQ(result.total_answers, 0u);
  for (const exec::MediatorStep& step : result.steps) {
    EXPECT_TRUE(step.failed);
    EXPECT_NE(step.failure_reason.find("budget"), std::string::npos);
  }
  // Without a budget the same network completes fine.
  options.plan_budget_ms = 0.0;
  const exec::MediatorResult unbounded = RuntimeRun(9, options);
  EXPECT_EQ(unbounded.failed_plans, 0u);
  EXPECT_GT(unbounded.total_answers, 0u);
}

TEST_F(MovieRuntimeTest, ParallelJoinPreservesSerialRowOrder) {
  // The partitioned batch fetch must reproduce the serial batch's row
  // sequence exactly (chunk-order merge + first-occurrence dedup).
  auto plan = ParseRule("q(M,R) :- v3(A,M), v4(R,M)");
  ASSERT_TRUE(plan.ok());
  auto serial = exec::ExecutePlanDependent(*plan, registry_);
  ASSERT_TRUE(serial.ok());

  SourceRuntime runtime(&registry_, QuietOptions(4));
  ParallelJoinOptions join_options;
  join_options.max_partitions = 4;
  exec::ExecutionTrace trace;
  auto parallel = ExecutePlanDependentParallel(
      *plan, runtime.remotes(), runtime.pool(), join_options, &trace);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(*serial, *parallel);  // same answers, same order
  ASSERT_EQ(trace.atoms.size(), 2u);
  // v3 ships 3 distinct movies to v4: split across several partition calls.
  EXPECT_GT(trace.atoms[1].calls, 1);
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

  exec::SourceRegistry registry;
  for (datalog::SourceId id = 0; id < d.catalog.num_sources(); ++id) {
    const std::string& name = d.catalog.source(id).name;
    auto source = registry.Register(name, 2);
    ASSERT_TRUE(source.ok());
    for (const auto& tuple : d.source_facts.TuplesFor(name)) {
      ASSERT_TRUE((*source)->Add(tuple).ok());
    }
  }

  exec::Mediator mediator(&d.catalog, d.query, &d.source_facts, d.source_ids);
  utility::CoverageModel model_a(&d.workload);
  auto orderer_a = core::MakeOrderer(
      {}, &d.workload, &model_a, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer_a.ok());
  auto serial = mediator.Run(**orderer_a, 16, &registry);
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
