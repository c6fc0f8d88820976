#include "reference/minicon.h"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "datalog/containment.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "reference/enumerate.h"
#include "reference/minicon_ordering.h"
#include "reference/orderer_factory.h"
#include "test_util.h"

namespace planorder::reformulation {
namespace {

using datalog::Catalog;
using datalog::ConjunctiveQuery;
using datalog::ParseAtom;
using datalog::ParseRule;

Catalog MovieCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog.schema().AddRelation("play-in", 2).ok());
  EXPECT_TRUE(catalog.schema().AddRelation("review-of", 2).ok());
  EXPECT_TRUE(catalog.schema().AddRelation("american", 1).ok());
  for (const char* text : {
           "v1(A,M) :- play-in(A,M), american(M)",
           "v3(A,M) :- play-in(A,M)",
           "v4(R,M) :- review-of(R,M)",
           "v5(R,M) :- review-of(R,M)",
       }) {
    EXPECT_TRUE(catalog.AddSourceFromText(text).ok());
  }
  return catalog;
}

ConjunctiveQuery MovieQuery() {
  auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
  EXPECT_TRUE(q.ok());
  return *q;
}

TEST(FormMcdsTest, MovieDomainSingleSubgoalMcds) {
  Catalog catalog = MovieCatalog();
  auto mcds = FormMcds(MovieQuery(), catalog);
  ASSERT_TRUE(mcds.ok()) << mcds.status();
  // v1 and v3 cover subgoal 0; v4 and v5 cover subgoal 1. All join variables
  // are distinguished in the views, so every MCD covers one subgoal.
  ASSERT_EQ(mcds->size(), 4u);
  int covering_first = 0, covering_second = 0;
  for (const Mcd& mcd : *mcds) {
    EXPECT_EQ(mcd.num_subgoals(), 1);
    if (mcd.subgoals == 0b01) ++covering_first;
    if (mcd.subgoals == 0b10) ++covering_second;
  }
  EXPECT_EQ(covering_first, 2);
  EXPECT_EQ(covering_second, 2);
}

TEST(FormMcdsTest, ExistentialJoinVariableForcesMultiSubgoalMcd) {
  // View w(A,C) :- p(A,B), r(B,C): B is existential in the view, so an MCD
  // touching p must also cover r (property C2).
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w(A,C) :- p(A,B), r(B,C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());
  auto mcds = FormMcds(*q, catalog);
  ASSERT_TRUE(mcds.ok());
  ASSERT_EQ(mcds->size(), 1u);
  EXPECT_EQ((*mcds)[0].subgoals, 0b11u);
}

TEST(FormMcdsTest, DistinguishedVariableOnExistentialViewVarRejected) {
  // Query exports B, but the only source projects it away: no MCD at all.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(A) :- p(A,B)").ok());
  auto q = ParseRule("q(A,B) :- p(A,B)");
  ASSERT_TRUE(q.ok());
  auto mcds = FormMcds(*q, catalog);
  ASSERT_TRUE(mcds.ok());
  EXPECT_TRUE(mcds->empty());
}

TEST(FormMcdsTest, ExistentialQueryVariableAllowsProjection) {
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(A) :- p(A,B)").ok());
  auto q = ParseRule("q(A) :- p(A,B)");
  ASSERT_TRUE(q.ok());
  auto mcds = FormMcds(*q, catalog);
  ASSERT_TRUE(mcds.ok());
  ASSERT_EQ(mcds->size(), 1u);
}

TEST(GroupAndPartitionTest, MovieDomainSpaces) {
  Catalog catalog = MovieCatalog();
  const ConjunctiveQuery query = MovieQuery();
  auto mcds = FormMcds(query, catalog);
  ASSERT_TRUE(mcds.ok());
  const auto buckets = GroupMcds(*mcds);
  ASSERT_EQ(buckets.size(), 2u);  // {subgoal 0}, {subgoal 1}
  const auto spaces = BuildMcdPlanSpaces(query, buckets);
  ASSERT_EQ(spaces.size(), 1u);
  EXPECT_EQ(spaces[0].bucket_indices.size(), 2u);
}

TEST(GroupAndPartitionTest, MixedCoveragePartitions) {
  // One source covers both subgoals at once, two cover one each: the
  // partitions are {both} and {first}+{second}.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w(A,C) :- p(A,B), r(B,C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp(A,B) :- p(A,B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr(B,C) :- r(B,C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());
  auto mcds = FormMcds(*q, catalog);
  ASSERT_TRUE(mcds.ok());
  const auto buckets = GroupMcds(*mcds);
  const auto spaces = BuildMcdPlanSpaces(*q, buckets);
  EXPECT_EQ(spaces.size(), 2u);
}

TEST(EnumerateMiniConPlansTest, MovieDomainMatchesBucketPlans) {
  Catalog catalog = MovieCatalog();
  const ConjunctiveQuery query = MovieQuery();
  auto minicon = EnumerateMiniConPlans(query, catalog);
  ASSERT_TRUE(minicon.ok()) << minicon.status();
  auto bucket = EnumerateSoundPlans(query, catalog);
  ASSERT_TRUE(bucket.ok());
  ASSERT_EQ(minicon->size(), bucket->size());  // 2 x 2 = 4
  // Every bucket plan is equivalent to some MiniCon plan (via expansions).
  for (const QueryPlan& bp : *bucket) {
    auto bexp = ExpandPlan(bp, catalog);
    ASSERT_TRUE(bexp.ok());
    bool found = false;
    for (const QueryPlan& mp : *minicon) {
      auto mexp = ExpandPlan(mp, catalog);
      ASSERT_TRUE(mexp.ok());
      if (datalog::AreEquivalent(*bexp, *mexp)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << bp.rewriting.ToString();
  }
}

TEST(EnumerateMiniConPlansTest, FindsPlanTheNaiveBucketCombinationMisses) {
  // The MiniCon paper's motivating case: with w(A,C) :- p(A,B), r(B,C), the
  // sound single-atom rewriting q(A,C) :- w(A,C) exists, but the naive
  // bucket combination (one independently-unified atom per subgoal) cannot
  // assemble it.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w(A,C) :- p(A,B), r(B,C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());

  auto minicon = EnumerateMiniConPlans(*q, catalog);
  ASSERT_TRUE(minicon.ok()) << minicon.status();
  ASSERT_EQ(minicon->size(), 1u);
  EXPECT_EQ((*minicon)[0].rewriting.body.size(), 1u);
  EXPECT_EQ((*minicon)[0].rewriting.body[0].predicate, "w");

  auto bucket = EnumerateSoundPlans(*q, catalog);
  ASSERT_TRUE(bucket.ok());
  EXPECT_TRUE(bucket->empty());
}

TEST(EnumerateMiniConPlansTest, AnswersAreAlwaysQueryAnswers) {
  // Instance-level soundness across every MiniCon plan.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w(A,C) :- p(A,B), r(B,C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp(A,B) :- p(A,B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr(B,C) :- r(B,C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());

  datalog::Database schema_db;
  auto add = [&](const char* text) {
    auto atom = ParseAtom(text);
    ASSERT_TRUE(atom.ok());
    schema_db.AddFact(*atom);
  };
  add("p(a, b1)");
  add("p(a, b2)");
  add("r(b1, c1)");
  add("r(b2, c2)");
  add("r(bx, cx)");

  datalog::Database source_db;
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    auto tuples = datalog::EvaluateQuery(catalog.source(id).view, schema_db);
    ASSERT_TRUE(tuples.ok());
    for (const auto& tuple : *tuples) {
      source_db.AddFact(datalog::Atom(catalog.source(id).name, tuple));
    }
  }
  auto query_answers = datalog::EvaluateQuery(*q, schema_db);
  ASSERT_TRUE(query_answers.ok());
  std::set<std::vector<datalog::Term>> answers(query_answers->begin(),
                                               query_answers->end());

  auto minicon = EnumerateMiniConPlans(*q, catalog);
  ASSERT_TRUE(minicon.ok());
  ASSERT_FALSE(minicon->empty());
  std::set<std::vector<datalog::Term>> union_of_plans;
  for (const QueryPlan& plan : *minicon) {
    auto tuples = datalog::EvaluateQuery(plan.rewriting, source_db);
    ASSERT_TRUE(tuples.ok());
    for (const auto& tuple : *tuples) {
      EXPECT_TRUE(answers.contains(tuple))
          << "unsound: " << plan.rewriting.ToString();
      union_of_plans.insert(tuple);
    }
  }
  EXPECT_EQ(union_of_plans, answers);  // complete sources recover everything
}

TEST(CombineMcdsTest, RejectsOverlapAndGaps) {
  Catalog catalog = MovieCatalog();
  const ConjunctiveQuery query = MovieQuery();
  auto mcds = FormMcds(query, catalog);
  ASSERT_TRUE(mcds.ok());
  const Mcd* first = nullptr;
  for (const Mcd& mcd : *mcds) {
    if (mcd.subgoals == 0b01) {
      first = &mcd;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  // Gap: only subgoal 0 covered.
  EXPECT_FALSE(CombineMcds(query, catalog, {first}).ok());
  // Overlap: same subgoal twice.
  EXPECT_FALSE(CombineMcds(query, catalog, {first, first}).ok());
}

TEST(MiniConOrderingTest, StreamsOrderMiniConPlansByCost) {
  // The Section 7 pipeline end to end: MCDs -> generalized buckets -> plan
  // spaces -> per-space workloads -> per-space orderers -> rewritings. Under
  // a fully independent measure each stream emits in exact decreasing
  // utility, and merging the streams by utility orders all plans.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w(A,C) :- p(A,B), r(B,C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("w2(A,C) :- p(A,B), r(B,C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp(A,B) :- p(A,B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr(B,C) :- r(B,C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr2(B,C) :- r(B,C)").ok());
  auto query = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(query.ok());

  auto mcds = FormMcds(*query, catalog);
  ASSERT_TRUE(mcds.ok());
  const auto buckets = GroupMcds(*mcds);
  const auto spaces = BuildMcdPlanSpaces(*query, buckets);
  ASSERT_EQ(spaces.size(), 2u);  // {w|w2} and {vp} x {vr|vr2}

  // Source statistics: make w2 clearly cheapest, then w, then combinations.
  std::vector<stats::SourceStats> per_source(catalog.num_sources());
  const double cardinalities[] = {50, 10, 200, 300, 400};
  const double alphas[] = {0.2, 0.2, 0.3, 0.3, 0.3};
  for (int i = 0; i < catalog.num_sources(); ++i) {
    per_source[i].cardinality = cardinalities[i];
    per_source[i].transmission_cost = alphas[i];
  }
  auto streams = BuildMiniConStreams(*mcds, buckets, spaces, per_source,
                                     /*access_overhead=*/5.0,
                                     /*domain_size=*/1000.0);
  ASSERT_TRUE(streams.ok()) << streams.status();
  ASSERT_EQ(streams->size(), 2u);

  std::vector<double> utilities;
  for (MiniConPlanStream& stream : *streams) {
    auto model =
        test::MustMakeMeasure(utility::MeasureKind::kCost2, &stream.workload);
    ASSERT_TRUE(model->fully_independent());
    auto orderer = core::MakeReferenceOrderer(
        {core::OrdererKind::kPi}, &stream.workload, model.get(),
        {core::PlanSpace::FullSpace(stream.workload)});
    ASSERT_TRUE(orderer.ok()) << orderer.status();
    double last = std::numeric_limits<double>::infinity();
    for (const core::OrderedPlan& next : test::Drain(**orderer)) {
      EXPECT_LE(next.utility, last);
      last = next.utility;
      utilities.push_back(next.utility);
      // Map back to a rewriting and verify soundness end to end.
      std::vector<const Mcd*> combo;
      for (size_t b = 0; b < next.plan.size(); ++b) {
        combo.push_back(&(*mcds)[stream.mcd_by_bucket[b][next.plan[b]]]);
      }
      auto plan = CombineMcds(*query, catalog, combo);
      ASSERT_TRUE(plan.ok()) << plan.status();
    }
  }
  // 2 single-MCD plans + 1 * 2 combinations.
  ASSERT_EQ(utilities.size(), 4u);
  // The cheapest is the single-atom w2 plan (tiny cardinality).
  EXPECT_NEAR(*std::max_element(utilities.begin(), utilities.end()),
              -(5.0 + 0.2 * 10.0), 1e-9);
}

}  // namespace
}  // namespace planorder::reformulation
