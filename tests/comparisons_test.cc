/// Interpreted comparison predicates (lt/le/gt/ge/neq) across the stack:
/// builtin evaluation, safety, query evaluation, containment by constraint
/// implication, the bucket-algorithm pipeline (plans over sources whose view
/// constraints contradict the query are filtered as unsound), inverse rules,
/// and dependent-join execution.

#include <set>

#include <gtest/gtest.h>

#include "datalog/builtins.h"
#include "datalog/containment.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "exec/dependent_join.h"
#include "reference/enumerate.h"
#include "reference/evaluate_program.h"
#include "reference/inverse_rules.h"
#include "reference/minicon.h"
#include "reformulation/rewriting.h"

namespace planorder {
namespace {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::ParseAtom;
using datalog::ParseRule;
using datalog::Term;

Atom MustAtom(std::string_view text) {
  auto atom = ParseAtom(text);
  EXPECT_TRUE(atom.ok()) << atom.status();
  return *atom;
}

ConjunctiveQuery MustRule(std::string_view text) {
  auto rule = ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  return *rule;
}

TEST(BuiltinsTest, RecognizesComparisonAtoms) {
  EXPECT_TRUE(datalog::IsComparisonAtom(MustAtom("lt(X, 5)")));
  EXPECT_TRUE(datalog::IsComparisonAtom(MustAtom("neq(A, B)")));
  EXPECT_FALSE(datalog::IsComparisonAtom(MustAtom("lt(X, 5, 6)")));  // arity
  EXPECT_FALSE(datalog::IsComparisonAtom(MustAtom("less(X, 5)")));
}

TEST(BuiltinsTest, NumericValues) {
  EXPECT_EQ(datalog::NumericValue(Term::Constant("42")), 42.0);
  EXPECT_EQ(datalog::NumericValue(Term::Constant("-3.5")), -3.5);
  EXPECT_FALSE(datalog::NumericValue(Term::Constant("ford")).has_value());
  EXPECT_FALSE(datalog::NumericValue(Term::Variable("X")).has_value());
  EXPECT_FALSE(datalog::NumericValue(Term::Constant("12abc")).has_value());
}

TEST(BuiltinsTest, EvaluatesAllOperators) {
  auto eval = [&](const char* text) {
    auto result = datalog::EvaluateComparison(MustAtom(text));
    EXPECT_TRUE(result.ok()) << text;
    return result.ok() && *result;
  };
  EXPECT_TRUE(eval("lt(1, 2)"));
  EXPECT_FALSE(eval("lt(2, 2)"));
  EXPECT_TRUE(eval("le(2, 2)"));
  EXPECT_TRUE(eval("gt(3, 2)"));
  EXPECT_TRUE(eval("ge(2, 2)"));
  EXPECT_TRUE(eval("neq(1, 2)"));
  EXPECT_FALSE(eval("neq(2, 2)"));
  EXPECT_FALSE(datalog::EvaluateComparison(MustAtom("lt(ford, 2)")).ok());
}

TEST(ComparisonSafetyTest, ComparisonVariablesMustBeRelationallyBound) {
  EXPECT_TRUE(MustRule("q(X) :- r(X), lt(X, 5)").ValidateSafety().ok());
  EXPECT_FALSE(MustRule("q(X) :- r(X), lt(Y, 5)").ValidateSafety().ok());
  // Head variables cannot be bound by a comparison alone.
  EXPECT_FALSE(MustRule("q(Y) :- r(X), lt(X, Y)").ValidateSafety().ok());
}

TEST(ComparisonEvaluationTest, FiltersQueryResults) {
  datalog::Database db;
  for (const char* fact : {"price(cam1, 300)", "price(cam2, 700)",
                           "price(cam3, 450)"}) {
    db.AddFact(MustAtom(fact));
  }
  auto results =
      datalog::EvaluateQuery(MustRule("q(C) :- price(C, P), lt(P, 500)"), db);
  ASSERT_TRUE(results.ok()) << results.status();
  std::set<std::vector<Term>> got(results->begin(), results->end());
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.contains({Term::Constant("cam1")}));
  EXPECT_TRUE(got.contains({Term::Constant("cam3")}));
}

TEST(ComparisonEvaluationTest, ComparisonFirstInBodyStillWorks) {
  datalog::Database db;
  db.AddFact(MustAtom("r(1)"));
  db.AddFact(MustAtom("r(9)"));
  auto results =
      datalog::EvaluateQuery(MustRule("q(X) :- gt(X, 5), r(X)"), db);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0][0], Term::Constant("9"));
}

TEST(ComparisonEvaluationTest, WorksInRuleBodies) {
  datalog::Database edb;
  edb.AddFact(MustAtom("price(cam1, 300)"));
  edb.AddFact(MustAtom("price(cam2, 700)"));
  auto result = datalog::EvaluateProgram(
      {MustRule("cheap(C) :- price(C, P), lt(P, 500)")}, edb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->TuplesFor("cheap").size(), 1u);
  EXPECT_TRUE(result->Contains(MustAtom("cheap(cam1)")));
}

TEST(ComparisonEvaluationTest, NonNumericComparisonErrors) {
  datalog::Database db;
  db.AddFact(MustAtom("r(ford)"));
  auto results =
      datalog::EvaluateQuery(MustRule("q(X) :- r(X), lt(X, 5)"), db);
  EXPECT_FALSE(results.ok());
}

TEST(ComparisonContainmentTest, BoundsImplication) {
  // lt(P, 300) implies lt(P, 500).
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), lt(P, 300)"),
      MustRule("q(C) :- price(C,P), lt(P, 500)")));
  EXPECT_FALSE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), lt(P, 500)"),
      MustRule("q(C) :- price(C,P), lt(P, 300)")));
  // le at the same bound is implied by lt.
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), lt(P, 500)"),
      MustRule("q(C) :- price(C,P), le(P, 500)")));
  // ... but not vice versa.
  EXPECT_FALSE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), le(P, 500)"),
      MustRule("q(C) :- price(C,P), lt(P, 500)")));
  // ge/gt lower bounds.
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), gt(P, 1000)"),
      MustRule("q(C) :- price(C,P), ge(P, 1000)")));
  // neq implied by a gap.
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), gt(P, 100)"),
      MustRule("q(C) :- price(C,P), neq(P, 50)")));
  // Plain query contains the constrained one, never the reverse.
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), lt(P, 500)"),
      MustRule("q(C) :- price(C,P)")));
  EXPECT_FALSE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P)"),
      MustRule("q(C) :- price(C,P), lt(P, 500)")));
}

TEST(ComparisonContainmentTest, UnsatisfiableSubIsContainedInAnything) {
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(C) :- price(C,P), lt(P, 100), gt(P, 200)"),
      MustRule("q(C) :- price(C,P), lt(P, 50)")));
}

TEST(ComparisonContainmentTest, ExactVarVarComparisonMatches) {
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(A,B) :- r(A,B), lt(A, B)"),
      MustRule("q(A,B) :- r(A,B), lt(A, B)")));
  // Flipped form gt(B, A) == lt(A, B).
  EXPECT_TRUE(datalog::IsContainedIn(
      MustRule("q(A,B) :- r(A,B), lt(A, B)"),
      MustRule("q(A,B) :- r(A,B), gt(B, A)")));
}

class CameraPriceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.schema().AddRelation("sells", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("review", 2).ok());
    // Three sellers with price-band views and two review sites.
    for (const char* text : {
             "budget(C,P)  :- sells(C,P), lt(P, 500)",
             "premium(C,P) :- sells(C,P), ge(P, 1000)",
             "anyshop(C,P) :- sells(C,P)",
             "reviews(C,R) :- review(C,R)",
         }) {
      ASSERT_TRUE(catalog_.AddSourceFromText(text).ok());
    }
    query_ = MustRule("q(C,R) :- sells(C,P), review(C,R), lt(P, 400)");
  }

  datalog::Catalog catalog_;
  ConjunctiveQuery query_;
};

TEST_F(CameraPriceFixture, BucketsCoverRelationalSubgoalsOnly) {
  auto buckets = reformulation::BuildBuckets(query_, catalog_);
  ASSERT_TRUE(buckets.ok()) << buckets.status();
  ASSERT_EQ(buckets->buckets.size(), 2u);  // sells, review
  // All three sellers are bucket candidates (relevance ignores constraints;
  // soundness filters).
  EXPECT_EQ(buckets->buckets[0].size(), 3u);
  EXPECT_EQ(buckets->buckets[1].size(), 1u);
}

TEST_F(CameraPriceFixture, ContradictorySourceIsFilteredAsUnsound) {
  // premium (P >= 1000) cannot serve a query that demands P < 400...
  auto premium = reformulation::BuildSoundPlan(query_, catalog_, {1, 3});
  ASSERT_TRUE(premium.ok());
  EXPECT_FALSE(premium->has_value());
  // ... while budget (P < 500) and anyshop can.
  auto budget = reformulation::BuildSoundPlan(query_, catalog_, {0, 3});
  ASSERT_TRUE(budget.ok());
  ASSERT_TRUE(budget->has_value());
  auto anyshop = reformulation::BuildSoundPlan(query_, catalog_, {2, 3});
  ASSERT_TRUE(anyshop.ok());
  EXPECT_TRUE(anyshop->has_value());
  // The sound rewriting carries the price filter.
  bool has_filter = false;
  for (const Atom& atom : (*budget)->rewriting.body) {
    if (datalog::IsComparisonAtom(atom)) has_filter = true;
  }
  EXPECT_TRUE(has_filter);
}

TEST_F(CameraPriceFixture, EndToEndAnswersRespectTheFilter) {
  // Materialize: budget holds cheap cameras, premium the expensive ones.
  datalog::Database source_db;
  for (const char* fact :
       {"budget(cam1, 300)", "budget(cam2, 450)", "premium(cam3, 1200)",
        "anyshop(cam1, 300)", "anyshop(cam3, 1200)", "reviews(cam1, r1)",
        "reviews(cam2, r2)", "reviews(cam3, r3)"}) {
    source_db.AddFact(MustAtom(fact));
  }
  auto plans = reformulation::EnumerateSoundPlans(query_, catalog_);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);  // budget & anyshop, each with reviews
  std::set<std::vector<Term>> answers;
  for (const auto& plan : *plans) {
    auto tuples = datalog::EvaluateQuery(plan.rewriting, source_db);
    ASSERT_TRUE(tuples.ok()) << tuples.status();
    answers.insert(tuples->begin(), tuples->end());
  }
  // cam1 (300 < 400) qualifies; cam2 (450) and cam3 (1200) do not.
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers.contains(
      {Term::Constant("cam1"), Term::Constant("r1")}));
}

TEST_F(CameraPriceFixture, InverseRulesAgree) {
  datalog::Database source_db;
  for (const char* fact :
       {"budget(cam1, 300)", "budget(cam2, 450)", "premium(cam3, 1200)",
        "anyshop(cam1, 300)", "anyshop(cam3, 1200)", "reviews(cam1, r1)",
        "reviews(cam2, r2)", "reviews(cam3, r3)"}) {
    source_db.AddFact(MustAtom(fact));
  }
  auto certain =
      reformulation::AnswerWithInverseRules(query_, catalog_, source_db);
  ASSERT_TRUE(certain.ok()) << certain.status();
  ASSERT_EQ(certain->size(), 1u);
  EXPECT_EQ((*certain)[0][0], Term::Constant("cam1"));
}

TEST_F(CameraPriceFixture, DependentJoinAppliesFilters) {
  exec::SourceRegistry registry;
  auto budget = registry.Register("budget", 2);
  auto reviews = registry.Register("reviews", 2);
  ASSERT_TRUE(budget.ok() && reviews.ok());
  ASSERT_TRUE(
      (*budget)->Add({Term::Constant("cam1"), Term::Constant("300")}).ok());
  ASSERT_TRUE(
      (*budget)->Add({Term::Constant("cam2"), Term::Constant("450")}).ok());
  ASSERT_TRUE(
      (*reviews)->Add({Term::Constant("cam1"), Term::Constant("r1")}).ok());
  ASSERT_TRUE(
      (*reviews)->Add({Term::Constant("cam2"), Term::Constant("r2")}).ok());

  auto plan = reformulation::BuildSoundPlan(query_, catalog_, {0, 3});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_value());
  exec::ExecutionTrace trace;
  auto answers =
      exec::ExecutePlanDependent((*plan)->rewriting, registry, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], Term::Constant("cam1"));
  // Filters show up in the trace with zero source contact.
  int64_t filter_calls = 0;
  for (const auto& a : trace.atoms) {
    if (datalog::IsComparisonPredicate(a.source)) filter_calls += a.calls;
  }
  EXPECT_EQ(filter_calls, 0);
}

TEST_F(CameraPriceFixture, MiniConDeclinesComparisons) {
  auto mcds = reformulation::FormMcds(query_, catalog_);
  EXPECT_FALSE(mcds.ok());
  EXPECT_EQ(mcds.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace planorder
