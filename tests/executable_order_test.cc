#include "reformulation/executable_order.h"

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/dependent_join.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "reformulation/bucket.h"
#include "utility/cost_models.h"

namespace planorder::reformulation {
namespace {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::ParseRule;
using datalog::Term;

class BindingPatternFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.schema().AddRelation("play-in", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("review-of", 2).ok());
    // v1 is a free actor->movie source; v4 is a web form that NEEDS the
    // movie (second argument) bound before it returns reviews.
    auto v1 = catalog_.AddSourceFromText("v1(A,M) :- play-in(A,M)");
    auto v4 = catalog_.AddSourceFromText("v4(R,M) :- review-of(R,M)");
    ASSERT_TRUE(v1.ok() && v4.ok());
    ASSERT_TRUE(catalog_.SetBindingPattern(*v4, "fb").ok());
    auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
    ASSERT_TRUE(q.ok());
    query_ = *q;
  }

  datalog::Catalog catalog_;
  ConjunctiveQuery query_;
};

TEST_F(BindingPatternFixture, CatalogValidatesPatterns) {
  EXPECT_FALSE(catalog_.SetBindingPattern(0, "b").ok());     // wrong length
  EXPECT_FALSE(catalog_.SetBindingPattern(0, "bx").ok());    // bad character
  EXPECT_FALSE(catalog_.SetBindingPattern(99, "bf").ok());   // unknown id
  EXPECT_TRUE(catalog_.SetBindingPattern(0, "bf").ok());
  EXPECT_TRUE(catalog_.source(0).RequiresBound(0));
  EXPECT_FALSE(catalog_.source(0).RequiresBound(1));
}

TEST_F(BindingPatternFixture, OrdersBoundSourceAfterItsProducer) {
  auto plan = BuildSoundPlan(query_, catalog_, {0, 1});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_value());
  // Flip the body so the bound-requiring v4 comes first; the executable
  // order must put v1 back in front.
  QueryPlan flipped = **plan;
  std::swap(flipped.rewriting.body[0], flipped.rewriting.body[1]);
  std::swap(flipped.sources[0], flipped.sources[1]);
  auto ordered = FindExecutableOrder(flipped, catalog_);
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  ASSERT_EQ(ordered->rewriting.body.size(), 2u);
  EXPECT_EQ(ordered->rewriting.body[0].predicate, "v1");
  EXPECT_EQ(ordered->rewriting.body[1].predicate, "v4");
  EXPECT_EQ(ordered->sources, (std::vector<datalog::SourceId>{0, 1}));
}

TEST_F(BindingPatternFixture, DetectsUnexecutablePlans) {
  // Make v1 require its movie bound too: now neither atom can go first.
  ASSERT_TRUE(catalog_.SetBindingPattern(0, "fb").ok());
  auto plan = BuildSoundPlan(query_, catalog_, {0, 1});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_value());
  auto ordered = FindExecutableOrder(**plan, catalog_);
  EXPECT_FALSE(ordered.ok());
  EXPECT_EQ(ordered.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BindingPatternFixture, ConstantsSatisfyBindings) {
  // A source requiring the ACTOR bound is satisfied by the query constant.
  ASSERT_TRUE(catalog_.SetBindingPattern(0, "bf").ok());
  auto plan = BuildSoundPlan(query_, catalog_, {0, 1});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_value());
  auto ordered = FindExecutableOrder(**plan, catalog_);
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  EXPECT_EQ(ordered->rewriting.body[0].predicate, "v1");
}

TEST_F(BindingPatternFixture, AccessLayerEnforcesPatterns) {
  exec::SourceRegistry registry;
  auto v1 = registry.Register("v1", 2);
  auto v4 = registry.Register("v4", 2);
  ASSERT_TRUE(v1.ok() && v4.ok());
  ASSERT_TRUE((*v4)->set_binding_pattern("fb").ok());
  ASSERT_TRUE(
      (*v1)->Add({Term::Constant("ford"), Term::Constant("witness")}).ok());
  ASSERT_TRUE(
      (*v4)->Add({Term::Constant("r1"), Term::Constant("witness")}).ok());

  // Executing v4 first (movie unbound) must fail...
  auto bad = ParseRule("q(M,R) :- v4(R,M), v1(ford,M)");
  ASSERT_TRUE(bad.ok());
  auto bad_result = exec::ExecutePlanDependent(*bad, registry);
  EXPECT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kFailedPrecondition);

  // ... and succeed in the executable order.
  auto good = ParseRule("q(M,R) :- v1(ford,M), v4(R,M)");
  ASSERT_TRUE(good.ok());
  auto good_result = exec::ExecutePlanDependent(*good, registry);
  ASSERT_TRUE(good_result.ok()) << good_result.status();
  EXPECT_EQ(good_result->size(), 1u);
}

TEST_F(BindingPatternFixture, MediatorReordersAndRunsEndToEnd) {
  // Source facts for the set-oriented path.
  datalog::Database facts;
  auto add = [&](const char* p, const char* a, const char* b) {
    facts.AddFact(Atom(p, {Term::Constant(a), Term::Constant(b)}));
  };
  add("v1", "ford", "witness");
  add("v1", "ford", "sabrina");
  add("v4", "r1", "witness");
  add("v4", "r2", "sabrina");

  auto buckets = BuildBuckets(query_, catalog_);
  ASSERT_TRUE(buckets.ok());
  std::vector<std::vector<stats::SourceStats>> bucket_stats(2);
  for (size_t b = 0; b < 2; ++b) {
    stats::SourceStats s;
    s.cardinality = 2;
    s.regions.bits = 1;
    bucket_stats[b].push_back(s);
  }
  auto workload =
      stats::Workload::FromParts(bucket_stats, {{1.0}, {1.0}}, 5.0, {8.0, 8.0});
  ASSERT_TRUE(workload.ok());
  utility::AdditiveCostModel model(&*workload);
  auto orderer = core::MakeOrderer(
      {}, &*workload, &model, {core::PlanSpace::FullSpace(*workload)});
  ASSERT_TRUE(orderer.ok());

  exec::Mediator mediator(&catalog_, query_, buckets->buckets);
  auto result = mediator.Run(**orderer, {.max_plans = 4},
                             *exec::MakeSetOrientedExecutor(&facts));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->steps.size(), 1u);
  EXPECT_TRUE(result->steps[0].sound);
  EXPECT_TRUE(result->steps[0].executable);
  EXPECT_EQ(result->total_answers, 2u);
}

TEST_F(BindingPatternFixture, UnexecutablePlanIsDiscardedByMediator) {
  ASSERT_TRUE(catalog_.SetBindingPattern(0, "fb").ok());  // v1 needs M too
  datalog::Database facts;
  auto buckets = BuildBuckets(query_, catalog_);
  ASSERT_TRUE(buckets.ok());
  std::vector<std::vector<stats::SourceStats>> bucket_stats(2);
  for (size_t b = 0; b < 2; ++b) {
    stats::SourceStats s;
    s.cardinality = 2;
    s.regions.bits = 1;
    bucket_stats[b].push_back(s);
  }
  auto workload =
      stats::Workload::FromParts(bucket_stats, {{1.0}, {1.0}}, 5.0, {8.0, 8.0});
  ASSERT_TRUE(workload.ok());
  utility::AdditiveCostModel model(&*workload);
  auto orderer = core::MakeOrderer(
      {}, &*workload, &model, {core::PlanSpace::FullSpace(*workload)});
  ASSERT_TRUE(orderer.ok());
  exec::Mediator mediator(&catalog_, query_, buckets->buckets);
  auto result = mediator.Run(**orderer, {.max_plans = 4},
                             *exec::MakeSetOrientedExecutor(&facts));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), 1u);
  EXPECT_TRUE(result->steps[0].sound);
  EXPECT_FALSE(result->steps[0].executable);
  EXPECT_EQ(result->total_answers, 0u);
}

TEST_F(BindingPatternFixture, ResolvePlanGivesOneVerdictPerPlan) {
  // Both buckets list both sources, so the bucket plan picks the pairing.
  const std::vector<std::vector<datalog::SourceId>> source_ids = {{0, 1},
                                                                  {0, 1}};
  struct Case {
    const char* name;
    const char* query;
    const char* v1_pattern;
    std::vector<int> bucket_plan;
    PlanVerdict verdict;
    std::vector<std::string> atoms;  // executable order when usable
  };
  const Case cases[] = {
      {"unsound", "q(M,R) :- play-in(ford,M), review-of(R,M)", "ff", {1, 0},
       PlanVerdict::kUnsound, {}},
      {"cyclic bindings", "q(M,R) :- play-in(ford,M), review-of(R,M)", "fb",
       {0, 1}, PlanVerdict::kNotExecutable, {}},
      {"bound after producer", "q(M,R) :- review-of(R,M), play-in(ford,M)",
       "ff", {1, 0}, PlanVerdict::kUsable, {"v1", "v4"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(catalog_.SetBindingPattern(0, c.v1_pattern).ok());
    auto query = ParseRule(c.query);
    ASSERT_TRUE(query.ok());
    auto resolved = ResolvePlan(*query, catalog_, source_ids, c.bucket_plan);
    ASSERT_TRUE(resolved.ok()) << resolved.status();
    EXPECT_EQ(resolved->verdict, c.verdict);
    std::vector<std::string> atoms;
    for (const Atom& atom : resolved->plan.rewriting.body) {
      atoms.push_back(atom.predicate);
    }
    EXPECT_EQ(atoms, c.atoms);
  }
  // A bucket plan that does not index the source buckets is an error.
  auto misaligned = ResolvePlan(query_, catalog_, source_ids, {0, 2});
  EXPECT_EQ(misaligned.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutableOrderTest, ComparisonsPlacedAsSoonAsBound) {
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("sells", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("review", 2).ok());
  auto shop = catalog.AddSourceFromText("shop(C,P) :- sells(C,P)");
  auto rev = catalog.AddSourceFromText("rev(C,R) :- review(C,R)");
  ASSERT_TRUE(shop.ok() && rev.ok());
  ASSERT_TRUE(catalog.SetBindingPattern(*rev, "bf").ok());
  auto query = ParseRule("q(C,R) :- sells(C,P), review(C,R), lt(P, 400)");
  ASSERT_TRUE(query.ok());
  auto plan = BuildSoundPlan(*query, catalog, {0, 1});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_value());
  auto ordered = FindExecutableOrder(**plan, catalog);
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  ASSERT_EQ(ordered->rewriting.body.size(), 3u);
  // shop first (binds C and P), then the price filter, then the bound rev.
  EXPECT_EQ(ordered->rewriting.body[0].predicate, "shop");
  EXPECT_EQ(ordered->rewriting.body[1].predicate, "lt");
  EXPECT_EQ(ordered->rewriting.body[2].predicate, "rev");
}

}  // namespace
}  // namespace planorder::reformulation
