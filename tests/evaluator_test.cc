#include "datalog/evaluator.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "reference/evaluate_program.h"

namespace planorder::datalog {
namespace {

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

TEST(DatabaseTest, AddAndContains) {
  Database db;
  EXPECT_TRUE(db.AddFact(MustAtom("r(a,b)")));
  EXPECT_FALSE(db.AddFact(MustAtom("r(a,b)")));  // duplicate
  EXPECT_TRUE(db.AddFact(MustAtom("r(a,c)")));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.Contains(MustAtom("r(a,b)")));
  EXPECT_FALSE(db.Contains(MustAtom("r(b,a)")));
  EXPECT_EQ(db.TuplesFor("r").size(), 2u);
  EXPECT_TRUE(db.TuplesFor("unknown").empty());
}

TEST(DatabaseDeathTest, NonGroundFactAborts) {
  Database db;
  EXPECT_DEATH(db.AddFact(MustAtom("r(a,X)")), "non-ground");
}

TEST(EvaluateQueryTest, SimpleJoin) {
  Database db;
  db.AddFact(MustAtom("r(a,b)"));
  db.AddFact(MustAtom("r(b,c)"));
  db.AddFact(MustAtom("s(b,x)"));
  db.AddFact(MustAtom("s(c,y)"));
  auto results = EvaluateQuery(MustRule("q(X,Z) :- r(X,Y), s(Y,Z)"), db);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
}

TEST(EvaluateQueryTest, ConstantsFilter) {
  Database db;
  db.AddFact(MustAtom("play-in(ford, witness)"));
  db.AddFact(MustAtom("play-in(hepburn, sabrina)"));
  db.AddFact(MustAtom("review-of(r1, witness)"));
  db.AddFact(MustAtom("review-of(r2, sabrina)"));
  auto results = EvaluateQuery(
      MustRule("q(M,R) :- play-in(ford,M), review-of(R,M)"), db);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0][0], Term::Constant("witness"));
  EXPECT_EQ((*results)[0][1], Term::Constant("r1"));
}

TEST(EvaluateQueryTest, DeduplicatesProjectedAnswers) {
  Database db;
  db.AddFact(MustAtom("r(a,b)"));
  db.AddFact(MustAtom("r(a,c)"));
  auto results = EvaluateQuery(MustRule("q(X) :- r(X,Y)"), db);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(EvaluateQueryTest, RepeatedVariableInGoal) {
  Database db;
  db.AddFact(MustAtom("r(a,a)"));
  db.AddFact(MustAtom("r(a,b)"));
  auto results = EvaluateQuery(MustRule("q(X) :- r(X,X)"), db);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0][0], Term::Constant("a"));
}

TEST(EvaluateQueryTest, EmptyWhenNoMatch) {
  Database db;
  db.AddFact(MustAtom("r(a,b)"));
  auto results = EvaluateQuery(MustRule("q(X) :- r(X, z)"), db);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(EvaluateQueryTest, UnsafeQueryRejected) {
  Database db;
  EXPECT_FALSE(EvaluateQuery(MustRule("q(X,Y) :- r(X)"), db).ok());
}

TEST(EvaluateProgramTest, SingleRuleDerivation) {
  Database edb;
  edb.AddFact(MustAtom("parent(a,b)"));
  edb.AddFact(MustAtom("parent(b,c)"));
  auto result = EvaluateProgram(
      {MustRule("grandparent(X,Z) :- parent(X,Y), parent(Y,Z)")}, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Contains(MustAtom("grandparent(a,c)")));
  EXPECT_EQ(result->TuplesFor("grandparent").size(), 1u);
}

TEST(EvaluateProgramTest, RecursiveTransitiveClosure) {
  Database edb;
  edb.AddFact(MustAtom("edge(a,b)"));
  edb.AddFact(MustAtom("edge(b,c)"));
  edb.AddFact(MustAtom("edge(c,d)"));
  auto result = EvaluateProgram(
      {MustRule("path(X,Y) :- edge(X,Y)"),
       MustRule("path(X,Z) :- path(X,Y), edge(Y,Z)")},
      edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TuplesFor("path").size(), 6u);
  EXPECT_TRUE(result->Contains(MustAtom("path(a,d)")));
}

TEST(EvaluateProgramTest, SkolemHeadsAllowed) {
  // Inverse-rule shape: derive a fact with a Skolem term in the head.
  Database edb;
  edb.AddFact(MustAtom("v(a)"));
  auto result =
      EvaluateProgram({MustRule("p(X, f_v_Z(X)) :- v(X)")}, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TuplesFor("p").size(), 1u);
  EXPECT_EQ(result->TuplesFor("p")[0][1].ToString(), "f_v_Z(a)");
}

TEST(EvaluateProgramTest, DivergentSkolemRecursionErrorsOut) {
  // p grows a deeper Skolem term each round: must hit the cap, not hang.
  Database edb;
  edb.AddFact(MustAtom("p(a)"));
  EvaluateOptions options;
  options.max_iterations = 50;
  auto result =
      EvaluateProgram({MustRule("p(f(X)) :- p(X)")}, edb, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EvaluateProgramTest, UnsafeRuleRejected) {
  Database edb;
  EXPECT_FALSE(EvaluateProgram({MustRule("p(X,Y) :- q(X)")}, edb).ok());
}

TEST(EvaluateQueryTest, BodyOrderDoesNotAffectResults) {
  // EvaluateQuery reorders atoms greedily (bound-first); any permutation of
  // the body must yield the same answer set.
  Database db;
  db.AddFact(MustAtom("r(a,b)"));
  db.AddFact(MustAtom("r(b,c)"));
  db.AddFact(MustAtom("s(b,x)"));
  db.AddFact(MustAtom("s(c,y)"));
  db.AddFact(MustAtom("t(x)"));
  const char* permutations[] = {
      "q(X,Z) :- r(X,Y), s(Y,Z), t(Z)",
      "q(X,Z) :- t(Z), s(Y,Z), r(X,Y)",
      "q(X,Z) :- s(Y,Z), t(Z), r(X,Y)",
  };
  std::set<std::vector<Term>> reference;
  for (const char* text : permutations) {
    auto results = EvaluateQuery(MustRule(text), db);
    ASSERT_TRUE(results.ok()) << text;
    std::set<std::vector<Term>> got(results->begin(), results->end());
    if (reference.empty()) {
      reference = got;
      EXPECT_EQ(reference.size(), 1u);
    } else {
      EXPECT_EQ(got, reference) << text;
    }
  }
}

TEST(EvaluateQueryTest, CartesianBodyStillWorks) {
  // Atoms sharing no variables: a genuine cross product.
  Database db;
  db.AddFact(MustAtom("a(1)"));
  db.AddFact(MustAtom("a(2)"));
  db.AddFact(MustAtom("b(x)"));
  db.AddFact(MustAtom("b(y)"));
  auto results = EvaluateQuery(MustRule("q(X,Y) :- a(X), b(Y)"), db);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 4u);
}

TEST(EvaluateProgramTest, SemiNaiveMatchesNaiveOnDiamond) {
  // Multiple derivation paths for the same fact must not duplicate.
  Database edb;
  edb.AddFact(MustAtom("edge(a,b1)"));
  edb.AddFact(MustAtom("edge(a,b2)"));
  edb.AddFact(MustAtom("edge(b1,c)"));
  edb.AddFact(MustAtom("edge(b2,c)"));
  auto result = EvaluateProgram(
      {MustRule("path(X,Y) :- edge(X,Y)"),
       MustRule("path(X,Z) :- path(X,Y), edge(Y,Z)")},
      edb);
  ASSERT_TRUE(result.ok());
  // paths: a-b1, a-b2, b1-c, b2-c, a-c (deduped).
  EXPECT_EQ(result->TuplesFor("path").size(), 5u);
}

}  // namespace
}  // namespace planorder::datalog
