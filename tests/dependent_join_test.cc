#include "exec/dependent_join.h"

#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "exec/binding_batch.h"
#include "exec/source_access.h"

namespace planorder::exec {
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

TEST(AccessibleSourceTest, AddValidatesTuples) {
  AccessibleSource source("v", 2);
  EXPECT_TRUE(source.Add({Term::Constant("a"), Term::Constant("b")}).ok());
  EXPECT_FALSE(source.Add({Term::Constant("a")}).ok());  // arity
  EXPECT_FALSE(
      source.Add({Term::Constant("a"), Term::Variable("X")}).ok());  // ground
  // Duplicate silently kept out.
  EXPECT_TRUE(source.Add({Term::Constant("a"), Term::Constant("b")}).ok());
  EXPECT_EQ(source.size(), 1u);
}

/// A source v(actor, movie) holding three tuples.
AccessibleSource MovieSource() {
  AccessibleSource source("v", 2);
  const std::pair<const char*, const char*> tuples[] = {
      {"ford", "m1"}, {"ford", "m2"}, {"kate", "m3"}};
  for (const auto& [actor, movie] : tuples) {
    EXPECT_TRUE(
        source.Add({Term::Constant(actor), Term::Constant(movie)}).ok());
  }
  return source;
}

/// A batch over `positions` holding `combinations` in order.
BindingBatch MakeBatch(std::vector<int> positions,
                       const std::vector<std::vector<Term>>& combinations) {
  BindingBatch batch(std::move(positions));
  for (const auto& values : combinations) batch.Add(values);
  return batch;
}

TEST(AccessibleSourceTest, FetchByBindingPattern) {
  AccessibleSource source = MovieSource();
  // One combination per batch: its matches through the index over its
  // bound position set.
  auto matches = [&source](std::vector<int> positions,
                           std::vector<Term> values) {
    auto rows =
        source.FetchBatch(MakeBatch(std::move(positions), {std::move(values)}));
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? rows->size() : size_t{0};
  };
  EXPECT_EQ(matches({}, {}), 3u);  // full scan
  EXPECT_EQ(matches({0}, {Term::Constant("ford")}), 2u);
  EXPECT_EQ(matches({0}, {Term::Constant("bogart")}), 0u);
  EXPECT_EQ(matches({0, 1}, {Term::Constant("ford"), Term::Constant("m2")}),
            1u);
  // An empty batch is a free no-op.
  auto empty = source.FetchBatch(BindingBatch({0}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(AccessibleSourceTest, FetchBatchShipsUnionInFirstOccurrenceOrder) {
  AccessibleSource source = MovieSource();
  // The repeated "kate" is kept out of the batch, so the union is distinct.
  auto rows = source.FetchBatch(MakeBatch({0}, {{Term::Constant("kate")},
                                                {Term::Constant("ford")},
                                                {Term::Constant("kate")}}));
  ASSERT_TRUE(rows.ok()) << rows.status();
  // Union in the order the combinations matched.
  const std::vector<std::vector<Term>> want = {
      {Term::Constant("kate"), Term::Constant("m3")},
      {Term::Constant("ford"), Term::Constant("m1")},
      {Term::Constant("ford"), Term::Constant("m2")}};
  EXPECT_EQ(*rows, want);
}

TEST(SourceRegistryTest, RegisterAndFind) {
  SourceRegistry registry;
  ASSERT_TRUE(registry.Register("v1", 2).ok());
  EXPECT_FALSE(registry.Register("v1", 2).ok());  // duplicate
  EXPECT_NE(registry.Find("v1"), nullptr);
  EXPECT_EQ(registry.Find("v2"), nullptr);
}

class DependentJoinFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto v1 = registry_.Register("v1", 2);
    auto v4 = registry_.Register("v4", 2);
    ASSERT_TRUE(v1.ok() && v4.ok());
    auto add = [](AccessibleSource* s, const char* a, const char* b) {
      ASSERT_TRUE(s->Add({Term::Constant(a), Term::Constant(b)}).ok());
    };
    // v1(actor, movie)
    add(*v1, "ford", "witness");
    add(*v1, "ford", "sabrina");
    add(*v1, "kate", "titanic");
    // v4(review, movie)
    add(*v4, "r1", "witness");
    add(*v4, "r2", "witness");
    add(*v4, "r3", "titanic");
    add(*v4, "r4", "blade");
  }

  SourceRegistry registry_;
};

TEST_F(DependentJoinFixture, ExecutesBoundJoin) {
  const ConjunctiveQuery plan =
      MustRule("q(M,R) :- v1(ford,M), v4(R,M)");
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(plan, registry_, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  std::set<std::vector<Term>> got(answers->begin(), answers->end());
  EXPECT_EQ(got.size(), 2u);  // (witness,r1), (witness,r2)

  ASSERT_EQ(trace.atoms.size(), 2u);
  // Atom 0: one call bound on actor=ford, shipping ford's 2 movies.
  EXPECT_EQ(trace.atoms[0].calls, 1);
  EXPECT_EQ(trace.atoms[0].tuples_shipped, 2);
  // Atom 1: ONE batched call shipping the distinct movies (witness,
  // sabrina); the source returns witness's two reviews.
  EXPECT_EQ(trace.atoms[1].calls, 1);
  EXPECT_EQ(trace.atoms[1].tuples_shipped, 2);
}

TEST_F(DependentJoinFixture, MatchesSetOrientedEvaluation) {
  // Dependent execution must return exactly what evaluating the rewriting
  // over a database of all source facts returns.
  const ConjunctiveQuery plan = MustRule("q(A,M,R) :- v1(A,M), v4(R,M)");
  auto dependent = ExecutePlanDependent(plan, registry_);
  ASSERT_TRUE(dependent.ok());

  datalog::Database db;
  db.AddFact(MustAtom("v1(ford, witness)"));
  db.AddFact(MustAtom("v1(ford, sabrina)"));
  db.AddFact(MustAtom("v1(kate, titanic)"));
  db.AddFact(MustAtom("v4(r1, witness)"));
  db.AddFact(MustAtom("v4(r2, witness)"));
  db.AddFact(MustAtom("v4(r3, titanic)"));
  db.AddFact(MustAtom("v4(r4, blade)"));
  auto set_oriented = datalog::EvaluateQuery(plan, db);
  ASSERT_TRUE(set_oriented.ok());

  std::set<std::vector<Term>> a(dependent->begin(), dependent->end());
  std::set<std::vector<Term>> b(set_oriented->begin(), set_oriented->end());
  EXPECT_EQ(a, b);
}

TEST_F(DependentJoinFixture, TraceCostMatchesMeasureTwoShape) {
  // The trace priced with (h, alpha) is exactly the measure-(2) structure:
  // h per call + alpha per shipped tuple.
  const ConjunctiveQuery plan = MustRule("q(M,R) :- v1(ford,M), v4(R,M)");
  ExecutionTrace trace;
  ASSERT_TRUE(ExecutePlanDependent(plan, registry_, &trace).ok());
  // h=5, alpha = {0.5, 0.25}:
  // cost = (1*5 + 2*0.5) + (1*5 + 2*0.25) = 6 + 5.5 = 11.5 — exactly the
  // (h + a_i n_i) + (h + a_j n_out) structure of measure (2).
  EXPECT_DOUBLE_EQ(trace.ModeledCost(5.0, {0.5, 0.25}), 11.5);
  EXPECT_EQ(trace.TotalCalls(), 2);
  EXPECT_EQ(trace.TotalTuplesShipped(), 4);
}

TEST_F(DependentJoinFixture, EmptyPrefixShortCircuits) {
  const ConjunctiveQuery plan =
      MustRule("q(M,R) :- v1(bogart,M), v4(R,M)");
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(plan, registry_, &trace);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  ASSERT_EQ(trace.atoms.size(), 2u);
  EXPECT_EQ(trace.atoms[0].calls, 1);
  EXPECT_EQ(trace.atoms[0].tuples_shipped, 0);
  EXPECT_EQ(trace.atoms[1].calls, 0);  // never contacted
}

TEST_F(DependentJoinFixture, ValidatesInputs) {
  // Unknown source.
  EXPECT_FALSE(
      ExecutePlanDependent(MustRule("q(X) :- nope(X, Y)"), registry_).ok());
  // Arity mismatch.
  EXPECT_FALSE(
      ExecutePlanDependent(MustRule("q(X) :- v1(X)"), registry_).ok());
  // Unsafe head.
  EXPECT_FALSE(
      ExecutePlanDependent(MustRule("q(Z) :- v1(X, Y)"), registry_).ok());
}

TEST_F(DependentJoinFixture, RepeatedVariableInAtom) {
  auto vx = registry_.Register("vx", 2);
  ASSERT_TRUE(vx.ok());
  ASSERT_TRUE((*vx)->Add({Term::Constant("a"), Term::Constant("a")}).ok());
  ASSERT_TRUE((*vx)->Add({Term::Constant("a"), Term::Constant("b")}).ok());
  auto answers =
      ExecutePlanDependent(MustRule("q(X) :- vx(X, X)"), registry_);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], Term::Constant("a"));
}

TEST(DependentJoinRandomTest, AgreesWithSetOrientedOnRandomChains) {
  std::mt19937_64 rng(77);
  for (int round = 0; round < 10; ++round) {
    SourceRegistry registry;
    datalog::Database db;
    const int m = 2 + static_cast<int>(rng() % 2);
    for (int b = 0; b < m; ++b) {
      auto source = registry.Register("s" + std::to_string(b), 2);
      ASSERT_TRUE(source.ok());
      const int tuples = 4 + static_cast<int>(rng() % 8);
      for (int t = 0; t < tuples; ++t) {
        Term x = Term::Constant("c" + std::to_string(rng() % 5));
        Term y = Term::Constant("c" + std::to_string(rng() % 5));
        ASSERT_TRUE((*source)->Add({x, y}).ok());
        db.AddFact(Atom("s" + std::to_string(b), {x, y}));
      }
    }
    ConjunctiveQuery plan;
    plan.head.predicate = "q";
    plan.head.args = {Term::Variable("X0"),
                      Term::Variable("X" + std::to_string(m))};
    for (int b = 0; b < m; ++b) {
      plan.body.push_back(
          Atom("s" + std::to_string(b),
               {Term::Variable("X" + std::to_string(b)),
                Term::Variable("X" + std::to_string(b + 1))}));
    }
    auto dependent = ExecutePlanDependent(plan, registry);
    auto set_oriented = datalog::EvaluateQuery(plan, db);
    ASSERT_TRUE(dependent.ok() && set_oriented.ok());
    std::set<std::vector<Term>> a(dependent->begin(), dependent->end());
    std::set<std::vector<Term>> b2(set_oriented->begin(), set_oriented->end());
    EXPECT_EQ(a, b2) << "round " << round;
  }
}

}  // namespace
}  // namespace planorder::exec
