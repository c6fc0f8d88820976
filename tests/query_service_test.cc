#include "service/query_service.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "reformulation/bucket.h"

namespace planorder::service {
namespace {

using exec::MediatorResult;
using exec::MediatorStep;

std::unique_ptr<exec::SyntheticDomain> MakeDomain(uint64_t seed = 7) {
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 4;
  options.overlap_rate = 0.3;
  options.regions_per_bucket = 8;
  options.seed = seed;
  auto domain = exec::BuildSyntheticDomain(options, /*num_answers=*/120);
  EXPECT_TRUE(domain.ok()) << domain.status();
  return std::move(*domain);
}

exec::Mediator::RunLimits Limits(int max_plans) {
  exec::Mediator::RunLimits limits;
  limits.max_plans = max_plans;
  return limits;
}

/// Answer tuples as a canonical set of strings, for order-free comparison.
std::set<std::string> AnswerSet(
    const std::vector<std::vector<datalog::Term>>& tuples) {
  std::set<std::string> rendered;
  for (const auto& tuple : tuples) {
    std::string row;
    for (const datalog::Term& term : tuple) row += term.ToString() + "|";
    rendered.insert(row);
  }
  return rendered;
}

/// `query` with every variable renamed (an isomorph, not a textual
/// duplicate).
datalog::ConjunctiveQuery Isomorph(const datalog::ConjunctiveQuery& query) {
  datalog::Substitution renaming;
  for (const std::string& v : query.Variables()) {
    renaming[v] = datalog::Term::Variable("Renamed" + v);
  }
  datalog::ConjunctiveQuery isomorph(
      datalog::ApplySubstitution(query.head, renaming), {});
  for (const datalog::Atom& atom : query.body) {
    isomorph.body.push_back(datalog::ApplySubstitution(atom, renaming));
  }
  return isomorph;
}

/// Step traces must agree plan for plan: same plan order, same per-step
/// answer accounting.
void ExpectSameTrace(const MediatorResult& a, const MediatorResult& b) {
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

TEST(QueryServiceTest, RunsAQueryEndToEnd) {
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});
  auto result = service.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->total_answers, 0u);
  EXPECT_GT(result->sound_plans, 0u);

  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.sessions_admitted, 1);
  EXPECT_EQ(metrics.sessions_completed, 1);
  EXPECT_EQ(metrics.cache.misses, 1);
  EXPECT_EQ(metrics.cache.hits, 0);
  EXPECT_EQ(metrics.active_sessions, 0);
  EXPECT_EQ(metrics.latency.count(), 1u);
}

TEST(QueryServiceTest, CacheHitMatchesColdRunExactly) {
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});

  // Cold: first run misses and populates the cache.
  auto cold_session = service.OpenSession(d->query, Limits(16));
  ASSERT_TRUE(cold_session.ok()) << cold_session.status();
  EXPECT_FALSE((*cold_session)->cache_hit());
  while ((*cold_session)->NextStep().ok()) {
  }
  const std::set<std::string> cold_answers =
      AnswerSet((*cold_session)->Answers());
  const MediatorResult cold = (*cold_session)->Finish();

  // Hot: identical query hits.
  auto hot_session = service.OpenSession(d->query, Limits(16));
  ASSERT_TRUE(hot_session.ok()) << hot_session.status();
  EXPECT_TRUE((*hot_session)->cache_hit());
  while ((*hot_session)->NextStep().ok()) {
  }
  const std::set<std::string> hot_answers =
      AnswerSet((*hot_session)->Answers());
  const MediatorResult hot = (*hot_session)->Finish();

  ExpectSameTrace(cold, hot);
  EXPECT_EQ(cold_answers, hot_answers);
  EXPECT_FALSE(cold_answers.empty());

  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.cache.hits, 1);
  EXPECT_EQ(metrics.cache.misses, 1);
  EXPECT_EQ(metrics.cache_verifications, 1);
  EXPECT_EQ(metrics.cache_verification_failures, 0);
}

TEST(QueryServiceTest, IsomorphicQueryHitsAndMatches) {
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});
  auto cold = service.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(cold.ok()) << cold.status();

  auto session = service.OpenSession(Isomorph(d->query), Limits(16));
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE((*session)->cache_hit());
  while ((*session)->NextStep().ok()) {
  }
  const MediatorResult hot = (*session)->Finish();
  ExpectSameTrace(*cold, hot);
}

TEST(QueryServiceTest, CacheDisabledStillMatchesCachedRuns) {
  auto d = MakeDomain();
  ServiceOptions cached_opts;
  ServiceOptions uncached_opts;
  uncached_opts.cache_capacity = 0;
  QueryService cached(&d->catalog, &d->source_facts, cached_opts);
  QueryService uncached(&d->catalog, &d->source_facts, uncached_opts);

  auto a = cached.RunQuery(d->query, Limits(16));
  auto b = cached.RunQuery(d->query, Limits(16));  // hit
  auto c = uncached.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ExpectSameTrace(*a, *b);
  ExpectSameTrace(*a, *c);
  EXPECT_EQ(uncached.Metrics().cache.hits, 0);
}

TEST(QueryServiceTest, ColdMissesMergeMemoizedSourceScans) {
  auto d = MakeDomain();
  ServiceOptions options;
  options.cache_capacity = 0;  // every query is a reformulation miss
  QueryService service(&d->catalog, &d->source_facts, options);
  auto buckets = reformulation::BuildBuckets(d->query, d->catalog);
  ASSERT_TRUE(buckets.ok());
  int64_t members = 0;
  for (const auto& bucket : buckets->buckets) members += int64_t(bucket.size());

  auto first = service.OpenSession(d->query, Limits(16));
  ASSERT_TRUE(first.ok()) << first.status();
  while ((*first)->NextStep().ok()) {
  }
  const std::set<std::string> first_answers = AnswerSet((*first)->Answers());
  const MediatorResult first_result = (*first)->Finish();
  const reformulation::BindingHashMemo::Stats after_first =
      service.Metrics().estimation_memo;
  EXPECT_EQ(after_first.hits, 0);
  EXPECT_EQ(after_first.misses, members);

  // The isomorph misses the reformulation cache again, but every source
  // scan of its estimate is a memo hit.
  auto second = service.OpenSession(Isomorph(d->query), Limits(16));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE((*second)->cache_hit());
  while ((*second)->NextStep().ok()) {
  }
  const std::set<std::string> second_answers = AnswerSet((*second)->Answers());
  const MediatorResult second_result = (*second)->Finish();
  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.estimation_memo.hits - after_first.hits, members);
  EXPECT_EQ(metrics.estimation_memo.misses, after_first.misses);
  EXPECT_GT(metrics.estimation_memo.bytes, 0u);
  EXPECT_EQ(metrics.cache.hits, 0);

  // A fresh service (empty memo) orders and answers identically.
  QueryService fresh(&d->catalog, &d->source_facts, options);
  auto reference = fresh.OpenSession(Isomorph(d->query), Limits(16));
  ASSERT_TRUE(reference.ok()) << reference.status();
  while ((*reference)->NextStep().ok()) {
  }
  const std::set<std::string> reference_answers =
      AnswerSet((*reference)->Answers());
  const MediatorResult reference_result = (*reference)->Finish();
  ExpectSameTrace(second_result, reference_result);
  ExpectSameTrace(first_result, reference_result);
  EXPECT_EQ(second_answers, reference_answers);
  EXPECT_EQ(first_answers, reference_answers);
  EXPECT_FALSE(reference_answers.empty());
}

TEST(QueryServiceTest, StreamingStepsMatchBatchRun) {
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});
  auto batch = service.RunQuery(d->query, Limits(8));
  ASSERT_TRUE(batch.ok()) << batch.status();

  auto session = service.OpenSession(d->query, Limits(8));
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<MediatorStep> streamed;
  while (true) {
    auto step = (*session)->NextStep();
    if (!step.ok()) {
      EXPECT_EQ(step.status().code(), StatusCode::kNotFound);
      break;
    }
    streamed.push_back(*step);
    // Progressive visibility: the session's running result tracks the steps
    // pulled so far.
    EXPECT_EQ((*session)->progress().steps.size(), streamed.size());
  }
  const MediatorResult result = (*session)->Finish();
  ASSERT_EQ(streamed.size(), batch->steps.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].plan, batch->steps[i].plan);
    EXPECT_EQ(streamed[i].total_answers, batch->steps[i].total_answers);
  }
  EXPECT_EQ(result.total_answers, batch->total_answers);
}

TEST(QueryServiceTest, ShedsWhenQueueFullAndNoTimeout) {
  auto d = MakeDomain();
  ServiceOptions options;
  options.max_active_sessions = 1;
  options.admission_timeout_ms = 0.0;  // never wait: full = shed
  QueryService service(&d->catalog, &d->source_facts, options);

  auto held = service.OpenSession(d->query, Limits(4));
  ASSERT_TRUE(held.ok()) << held.status();

  auto rejected = service.OpenSession(d->query, Limits(4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.sessions_shed, 1);
  EXPECT_EQ(metrics.active_sessions, 1);

  (*held)->Finish();
  // Slot freed: admission works again.
  auto after = service.OpenSession(d->query, Limits(4));
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(QueryServiceTest, ShedsAfterAdmissionDeadline) {
  auto d = MakeDomain();
  ServiceOptions options;
  options.max_active_sessions = 1;
  options.max_queued_admissions = 4;
  options.admission_timeout_ms = 20.0;
  QueryService service(&d->catalog, &d->source_facts, options);

  auto held = service.OpenSession(d->query, Limits(4));
  ASSERT_TRUE(held.ok()) << held.status();
  auto timed_out = service.OpenSession(d->query, Limits(4));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Metrics().sessions_shed, 1);
  EXPECT_EQ(service.Metrics().sessions_queued, 1);
}

TEST(QueryServiceTest, QueuedAdmissionProceedsWhenSlotFrees) {
  auto d = MakeDomain();
  ServiceOptions options;
  options.max_active_sessions = 1;
  options.max_queued_admissions = 4;
  options.admission_timeout_ms = 10000.0;
  QueryService service(&d->catalog, &d->source_facts, options);

  auto held = service.OpenSession(d->query, Limits(4));
  ASSERT_TRUE(held.ok()) << held.status();

  Status waiter_status = InternalError("never ran");
  std::thread waiter([&] {
    auto result = service.RunQuery(d->query, Limits(4));
    waiter_status = result.status();
  });
  // Give the waiter time to enqueue, then free the slot.
  while (service.Metrics().queue_depth == 0 &&
         service.Metrics().sessions_completed == 0) {
    std::this_thread::yield();
  }
  (*held)->Finish();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status;
  EXPECT_EQ(service.Metrics().sessions_shed, 0);
  EXPECT_EQ(service.Metrics().queue_depth_peak, 1);
}

TEST(QueryServiceTest, DroppedSessionReleasesItsSlot) {
  auto d = MakeDomain();
  ServiceOptions options;
  options.max_active_sessions = 1;
  options.admission_timeout_ms = 0.0;
  QueryService service(&d->catalog, &d->source_facts, options);
  {
    auto session = service.OpenSession(d->query, Limits(4));
    ASSERT_TRUE(session.ok());
    // Abandoned mid-stream without Finish().
    (void)(*session)->NextStep();
  }
  EXPECT_EQ(service.Metrics().active_sessions, 0);
  auto next = service.OpenSession(d->query, Limits(4));
  EXPECT_TRUE(next.ok()) << next.status();
}

TEST(QueryServiceTest, OrdererFollowsTheMeasure) {
  // The service picks its orderer from the measure (Section 6): coverage
  // runs Streamer, the caching failure measure (no diminishing returns)
  // runs iDrips — under default options, with no orderer to configure.
  auto d = MakeDomain();
  ServiceOptions coverage_opts;
  ServiceOptions caching_opts;
  caching_opts.measure = utility::MeasureKind::kFailureCache;
  QueryService coverage(&d->catalog, &d->source_facts, coverage_opts);
  QueryService caching(&d->catalog, &d->source_facts, caching_opts);
  auto a = coverage.RunQuery(d->query, Limits(16));
  auto b = caching.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  // Both drain the same plan space; only the order differs.
  EXPECT_EQ(a->total_answers, b->total_answers);
  EXPECT_EQ(a->sound_plans, b->sound_plans);
}

TEST(QueryServiceTest, TooManySubgoalsIsInvalidArgument) {
  // A chain of kMaxDims + 1 relational subgoals: one coverage-bitmask
  // dimension too many. OpenSession refuses it instead of aborting.
  stats::WorkloadOptions options;
  options.query_length = stats::BitmaskUniverse::kMaxDims + 1;
  options.bucket_size = 2;
  options.regions_per_bucket = 4;
  options.seed = 3;
  auto d = exec::BuildSyntheticDomain(options, /*num_answers=*/4);
  ASSERT_TRUE(d.ok()) << d.status();
  QueryService service(&(*d)->catalog, &(*d)->source_facts, ServiceOptions{});
  auto session = service.OpenSession((*d)->query, Limits(4));
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status();
  EXPECT_EQ(service.Metrics().active_sessions, 0);
}

TEST(QueryServiceTest, BadRankedWeightScaleIsInvalidArgument) {
  // A caller-supplied weight scale that is not a power of two is refused
  // with a Status; the service keeps serving ranked sessions afterwards.
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});
  anyk::RankedAnswerStream::Options options;
  options.max_plans = 16;
  options.weights.scale = 3.0;
  auto bad = service.OpenRankedSession(d->query, options);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
      << bad.status();
  EXPECT_EQ(service.Metrics().active_sessions, 0);

  options.weights.scale = 2.0;
  auto good = service.OpenRankedSession(d->query, options);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_TRUE((*good)->NextRankedAnswer().ok());
  EXPECT_GT((*good)->ranked_stats()->relations_indexed, 0u);
}

TEST(QueryServiceTest, PlanStoreSaveFailureIsCounted) {
  // The store's directory does not exist, so the persist after the cold
  // miss fails; the session is served regardless and the failure counted.
  auto d = MakeDomain();
  adaptive::PlanStore store(::testing::TempDir() +
                            "no-such-directory/plan_store.txt");
  ServiceOptions options;
  options.plan_store = &store;
  QueryService service(&d->catalog, &d->source_facts, options);
  auto result = service.RunQuery(d->query, Limits(4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->total_answers, 0u);
  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.plan_store_saves, 0);
  EXPECT_EQ(metrics.plan_store_save_failures, 1);
}

TEST(QueryServiceTest, PerSessionRuntimeSnapshotIsIsolated) {
  auto d = MakeDomain();
  QueryService service(&d->catalog, &d->source_facts, ServiceOptions{});
  auto session = service.OpenSession(d->query, Limits(8));
  ASSERT_TRUE(session.ok());
  while ((*session)->NextStep().ok()) {
  }
  // Set-oriented execution: no simulated network, so the per-session
  // accounting is exactly zero (nothing from other sessions leaks in).
  const exec::RuntimeAccounting snapshot = (*session)->RuntimeSnapshot();
  EXPECT_EQ(snapshot.retries, 0);
  EXPECT_DOUBLE_EQ(snapshot.latency_ms_total, 0.0);
  (*session)->Finish();
}

}  // namespace
}  // namespace planorder::service
