/// Service-layer tests for the adaptive feedback loop (DESIGN.md §12): warm
/// restarts from the persistent plan store, learned statistics across a
/// restart, corruption fallback to a cold start, and adaptive sessions that
/// match plain ones while no observation has drifted.

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/observed_stats.h"
#include "adaptive/plan_store.h"
#include "datalog/canonicalize.h"
#include "exec/synthetic_domain.h"
#include "service/query_service.h"
#include "service/shared_view.h"

namespace planorder::service {
namespace {

using exec::MediatorResult;

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

/// Unique per-test store path in the ctest working directory.
class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_("adaptive_service_test_" + name + ".planstore") {
    std::remove(path_.c_str());
  }
  ~StoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(AdaptiveServiceTest, WarmRestartReplaysByteIdentically) {
  auto d = MakeDomain();
  StoreFile file("warm");
  adaptive::PlanStore store(file.path());

  ServiceOptions options;
  options.plan_store = &store;

  // First process lifetime: cold reformulation, persisted on the miss.
  std::set<std::string> cold_answers;
  MediatorResult cold;
  {
    QueryService service(&d->catalog, &d->source_facts, options);
    EXPECT_EQ(service.Metrics().plan_store_entries_loaded, 0);
    auto session = service.OpenSession(d->query, Limits(16));
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_FALSE((*session)->cache_hit());
    while ((*session)->NextStep().ok()) {
    }
    cold_answers = AnswerSet((*session)->Answers());
    cold = (*session)->Finish();
    EXPECT_GE(service.Metrics().plan_store_saves, 1);
  }

  // "Restart": a fresh service over the same store file. The reformulation
  // must come back from disk — a cache hit with no instance-statistics scan
  // — and replay the cold run byte for byte.
  adaptive::PlanStore reopened(file.path());
  options.plan_store = &reopened;
  QueryService warm(&d->catalog, &d->source_facts, options);
  EXPECT_GE(warm.Metrics().plan_store_entries_loaded, 1);
  EXPECT_EQ(warm.Metrics().plan_store_load_failures, 0);

  auto session = warm.OpenSession(d->query, Limits(16));
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE((*session)->cache_hit());
  while ((*session)->NextStep().ok()) {
  }
  const std::set<std::string> warm_answers = AnswerSet((*session)->Answers());
  const MediatorResult warm_result = (*session)->Finish();

  ExpectSameTrace(cold, warm_result);
  EXPECT_EQ(cold_answers, warm_answers);
  EXPECT_FALSE(cold_answers.empty());
  const ServiceMetricsSnapshot metrics = warm.Metrics();
  EXPECT_EQ(metrics.cache.hits, 1);
  EXPECT_EQ(metrics.cache.misses, 0);
}

TEST(AdaptiveServiceTest, LearnedStatisticsSurviveARestart) {
  auto d = MakeDomain();
  StoreFile file("stats");
  adaptive::PlanStore store(file.path());

  adaptive::ObservedStats learned;
  ServiceOptions options;
  options.plan_store = &store;
  options.observed_stats = &learned;
  QueryService service(&d->catalog, &d->source_facts, options);

  runtime::SourceObservation obs;
  obs.rows = 40;
  obs.attempts = 2;
  obs.failures = 1;
  obs.latency_micros = 9000;
  learned.RecordFetch("p0_v0", obs);
  obs.rows = 3;
  learned.RecordFetch("p1_v2", obs);
  learned.FoldWindow();
  ASSERT_TRUE(service.PersistPlanStore().ok());

  adaptive::PlanStore reopened(file.path());
  adaptive::ObservedStats restored;
  options.plan_store = &reopened;
  options.observed_stats = &restored;
  QueryService warm(&d->catalog, &d->source_facts, options);
  (void)warm;

  EXPECT_GT(restored.generation(), 0);
  for (const char* name : {"p0_v0", "p1_v2"}) {
    const adaptive::SourceEstimate want = learned.EstimateFor(name);
    const adaptive::SourceEstimate got = restored.EstimateFor(name);
    EXPECT_EQ(got.windows, want.windows);
    EXPECT_EQ(got.calls, want.calls);
    // Bit-exact across the hexfloat round trip.
    EXPECT_EQ(got.cardinality, want.cardinality);
    EXPECT_EQ(got.latency_ms, want.latency_ms);
    EXPECT_EQ(got.failure_prob, want.failure_prob);
  }
}

TEST(AdaptiveServiceTest, CorruptStoreFallsBackToAColdStart) {
  auto d = MakeDomain();
  StoreFile file("corrupt");
  {
    std::ofstream out(file.path());
    out << "planorder-planstore v1\nsources 6\nnot a store at all\n";
  }
  adaptive::PlanStore store(file.path());
  ServiceOptions options;
  options.plan_store = &store;
  QueryService service(&d->catalog, &d->source_facts, options);

  const ServiceMetricsSnapshot at_start = service.Metrics();
  EXPECT_EQ(at_start.plan_store_entries_loaded, 0);
  EXPECT_EQ(at_start.plan_store_load_failures, 1);

  // Queries still run (cold), and the next persist repairs the file.
  auto result = service.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->total_answers, 0u);
  ASSERT_TRUE(service.PersistPlanStore().ok());
  auto reloaded = adaptive::PlanStore(file.path()).Load();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->entries.size(), 1u);
}

/// Reports every source resident, so every session marks every (bucket,
/// index) of its reformulation externally cached.
class AllResidentView : public SharedOperationView {
 public:
  bool IsResident(const std::string&) const override { return true; }
};

TEST(AdaptiveServiceTest, MisShapedStoreEntryIsRejectedAndItsClassRunsCold) {
  // Regression: a store entry whose SourceId buckets have another shape than
  // its workload used to load, and a session over a residency view then
  // marked a (bucket, index) outside the orderer's execution context.
  auto d = MakeDomain();
  datalog::ConjunctiveQuery projected = d->query;  // a second query class
  projected.head.args.pop_back();
  StoreFile file("misshaped");
  {
    adaptive::PlanStore store(file.path());
    ServiceOptions options;
    options.plan_store = &store;
    QueryService service(&d->catalog, &d->source_facts, options);
    for (const datalog::ConjunctiveQuery& query : {d->query, projected}) {
      ASSERT_TRUE(service.RunQuery(query, Limits(16)).ok());
    }
  }
  // Give the projected class's entry one SourceId more in bucket 0 than its
  // workload has sources there.
  {
    adaptive::PlanStore store(file.path());
    auto contents = store.Load();
    ASSERT_TRUE(contents.ok()) << contents.status();
    ASSERT_EQ(contents->entries.size(), 2u);
    const std::string bad_key = datalog::CanonicalizeQuery(projected).key;
    int edited = 0;
    for (adaptive::StoredReformulation& entry : contents->entries) {
      if (entry.canonical_text != bad_key) continue;
      entry.buckets[0].push_back(entry.buckets[0].front());
      ++edited;
    }
    ASSERT_EQ(edited, 1);
    ASSERT_TRUE(store.Save(*contents).ok());
  }

  AllResidentView view;
  ServiceOptions options;
  options.source_cache_view = &view;
  QueryService reference(&d->catalog, &d->source_facts, options);
  adaptive::PlanStore store(file.path());
  options.plan_store = &store;
  QueryService warm(&d->catalog, &d->source_facts, options);
  EXPECT_EQ(warm.Metrics().plan_store_entries_loaded, 1);
  EXPECT_EQ(warm.Metrics().plan_store_entries_rejected, 1);
  EXPECT_EQ(warm.Metrics().plan_store_load_failures, 0);

  for (const datalog::ConjunctiveQuery* query : {&d->query, &projected}) {
    auto session = warm.OpenSession(*query, Limits(16));
    ASSERT_TRUE(session.ok()) << session.status();
    // Only the well-formed entry was restored; the other class reformulates
    // cold.
    EXPECT_EQ((*session)->cache_hit(), query == &d->query);
    while ((*session)->NextStep().ok()) {
    }
    const MediatorResult got = (*session)->Finish();
    auto want = reference.RunQuery(*query, Limits(16));
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameTrace(*want, got);
    EXPECT_GT(got.total_answers, 0u);
  }
}

TEST(AdaptiveServiceTest, AdaptiveSessionsWithoutDriftMatchPlainOnes) {
  auto d = MakeDomain();

  QueryService plain(&d->catalog, &d->source_facts, ServiceOptions{});
  auto plain_result = plain.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(plain_result.ok()) << plain_result.status();

  // Adaptive wrapper with zero folded observations: the blended workload is
  // bit-identical to the estimates, so the plan order must be too.
  adaptive::ObservedStats learned;
  ServiceOptions options;
  options.observed_stats = &learned;
  QueryService adaptive(&d->catalog, &d->source_facts, options);
  auto adaptive_result = adaptive.RunQuery(d->query, Limits(16));
  ASSERT_TRUE(adaptive_result.ok()) << adaptive_result.status();

  ExpectSameTrace(*plain_result, *adaptive_result);
}

}  // namespace
}  // namespace planorder::service
