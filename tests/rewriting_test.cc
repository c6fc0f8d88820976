#include "reformulation/rewriting.h"

#include <set>

#include <gtest/gtest.h>

#include "datalog/containment.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "reference/enumerate.h"

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
  EXPECT_TRUE(catalog.schema().AddRelation("russian", 1).ok());
  for (const char* text : {
           "v1(A,M) :- play-in(A,M), american(M)",
           "v2(A,M) :- play-in(A,M), russian(M)",
           "v3(A,M) :- play-in(A,M)",
           "v4(R,M) :- review-of(R,M)",
           "v5(R,M) :- review-of(R,M)",
           "v6(R,M) :- review-of(R,M)",
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

TEST(BuildSoundPlanTest, MovieDomainPlanV1V4) {
  Catalog catalog = MovieCatalog();
  auto plan = BuildSoundPlan(MovieQuery(), catalog, {0, 3});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->has_value());
  EXPECT_EQ((*plan)->rewriting.body.size(), 2u);
  EXPECT_EQ((*plan)->rewriting.body[0].predicate, "v1");
  EXPECT_EQ((*plan)->rewriting.body[1].predicate, "v4");
  // The rewriting carries the constant binding: v1(ford, M).
  EXPECT_EQ((*plan)->rewriting.body[0].args[0],
            datalog::Term::Constant("ford"));
}

TEST(BuildSoundPlanTest, AllNineMovieCombinationsAreSound) {
  Catalog catalog = MovieCatalog();
  const ConjunctiveQuery query = MovieQuery();
  for (datalog::SourceId a : {0, 1, 2}) {
    for (datalog::SourceId r : {3, 4, 5}) {
      auto plan = BuildSoundPlan(query, catalog, {a, r});
      ASSERT_TRUE(plan.ok());
      EXPECT_TRUE(plan->has_value()) << "combo " << a << "," << r;
    }
  }
}

TEST(BuildSoundPlanTest, RejectsUnsoundCombination) {
  // A source whose view is *more general* than the subgoal pattern requires
  // the expansion-containment test to fail when it cannot enforce a join.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  // v_pair exports only the endpoints of the join; the join variable B is
  // projected away, so p(A,B), r(B,C) cannot be enforced soundly by
  // combining two *separate* uses... build a source that loses the join:
  ASSERT_TRUE(catalog.AddSourceFromText("vp(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr(C) :- r(B, C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());
  auto plan = BuildSoundPlan(*q, catalog, {0, 1});
  ASSERT_TRUE(plan.ok());
  // The assembled rewriting q(A,C) :- vp(A), vr(C) loses the join on B:
  // its expansion is not contained in the query.
  EXPECT_FALSE(plan->has_value());
}

TEST(ExpandPlanTest, ExpansionContainsViewBodies) {
  Catalog catalog = MovieCatalog();
  auto plan = BuildSoundPlan(MovieQuery(), catalog, {0, 3});
  ASSERT_TRUE(plan.ok() && plan->has_value());
  auto expansion = ExpandPlan(**plan, catalog);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  // v1 contributes play-in + american, v4 contributes review-of.
  ASSERT_EQ(expansion->body.size(), 3u);
  EXPECT_EQ(expansion->body[0].predicate, "play-in");
  EXPECT_EQ(expansion->body[1].predicate, "american");
  EXPECT_EQ(expansion->body[2].predicate, "review-of");
  // And the expansion is contained in the query (soundness witness).
  EXPECT_TRUE(datalog::IsContainedIn(*expansion, MovieQuery()));
}

TEST(EnumerateSoundPlansTest, MovieDomainYieldsNinePlans) {
  Catalog catalog = MovieCatalog();
  auto plans = EnumerateSoundPlans(MovieQuery(), catalog);
  ASSERT_TRUE(plans.ok()) << plans.status();
  EXPECT_EQ(plans->size(), 9u);
}

TEST(EnumerateSoundPlansTest, EmptyWhenSubgoalUnserved) {
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 1).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 1).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(A) :- p(A)").ok());
  auto q = ParseRule("q(A) :- p(A), r(A)");
  ASSERT_TRUE(q.ok());
  auto plans = EnumerateSoundPlans(*q, catalog);
  ASSERT_TRUE(plans.ok());
  EXPECT_TRUE(plans->empty());
}

TEST(SoundPlansExecuteCorrectly, PlanAnswersAreQueryAnswers) {
  // End-to-end soundness: every tuple produced by a sound plan over source
  // instances consistent with the views is an answer of the query over the
  // underlying database.
  Catalog catalog = MovieCatalog();
  const ConjunctiveQuery query = MovieQuery();

  datalog::Database schema_db;
  auto add = [&](const char* text) {
    auto atom = ParseAtom(text);
    ASSERT_TRUE(atom.ok());
    schema_db.AddFact(*atom);
  };
  add("play-in(ford, witness)");
  add("play-in(ford, 'air force one')");
  add("play-in(kate, titanic)");
  add("american(witness)");
  add("american(titanic)");
  add("review-of(rev1, witness)");
  add("review-of(rev2, 'air force one')");
  add("review-of(rev3, titanic)");

  // Materialize each source as the *full* extension of its view (sources may
  // be incomplete; completeness maximizes what plans can return).
  datalog::Database source_db;
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    auto tuples = datalog::EvaluateQuery(catalog.source(id).view, schema_db);
    ASSERT_TRUE(tuples.ok());
    for (const auto& tuple : *tuples) {
      source_db.AddFact(datalog::Atom(catalog.source(id).name, tuple));
    }
  }

  auto query_answers = datalog::EvaluateQuery(query, schema_db);
  ASSERT_TRUE(query_answers.ok());
  std::set<std::vector<datalog::Term>> answer_set(query_answers->begin(),
                                                  query_answers->end());
  ASSERT_EQ(answer_set.size(), 2u);  // witness, air force one

  auto plans = EnumerateSoundPlans(query, catalog);
  ASSERT_TRUE(plans.ok());
  std::set<std::vector<datalog::Term>> union_of_plans;
  for (const QueryPlan& plan : *plans) {
    auto tuples = datalog::EvaluateQuery(plan.rewriting, source_db);
    ASSERT_TRUE(tuples.ok());
    for (const auto& tuple : *tuples) {
      EXPECT_TRUE(answer_set.contains(tuple))
          << "unsound tuple from " << plan.rewriting.ToString();
      union_of_plans.insert(tuple);
    }
  }
  // With complete sources the union of all sound plans recovers everything.
  EXPECT_EQ(union_of_plans, answer_set);
}

}  // namespace
}  // namespace planorder::reformulation
