#include "exec/dependent_join.h"

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.h"
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

/// Ordered rendering of an answer sequence, to compare against a literal.
std::vector<std::string> Render(const std::vector<std::vector<Term>>& rows) {
  std::vector<std::string> out;
  for (const std::vector<Term>& row : rows) {
    std::string text;
    for (const Term& t : row) text += (text.empty() ? "" : ",") + t.ToString();
    out.push_back(text);
  }
  return out;
}

/// The trace as "source:calls:tuples_shipped" per atom.
std::vector<std::string> Render(const ExecutionTrace& trace) {
  std::vector<std::string> out;
  for (const AtomAccess& a : trace.atoms) {
    out.push_back(a.source + ":" + std::to_string(a.calls) + ":" +
                  std::to_string(a.tuples_shipped));
  }
  return out;
}

using Lines = std::vector<std::string>;

TEST_F(DependentJoinFixture, FullyGroundRewriting) {
  // No variables at all: the frontier is one partial of width 0.
  ExecutionTrace trace;
  auto hit = ExecutePlanDependent(
      MustRule("q(ok) :- v1(ford, witness), v4(r1, witness)"), registry_,
      &trace);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(Render(*hit), Lines({"ok"}));
  EXPECT_EQ(Render(trace), Lines({"v1:1:1", "v4:1:1"}));

  auto miss = ExecutePlanDependent(
      MustRule("q(ok) :- v1(ford, witness), v4(r3, witness)"), registry_,
      &trace);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(Render(*miss), Lines());
  EXPECT_EQ(Render(trace), Lines({"v1:1:1", "v4:1:0"}));
}

TEST_F(DependentJoinFixture, ConstantAtLaterAtom) {
  // v4 is bound on its constant only: every partial sends the same
  // combination, so the batch holds it once, and each partial joins with
  // both rows, partial-major.
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(
      MustRule("q(A,R) :- v1(A,M), v4(R,witness)"), registry_, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(Render(*answers),
            Lines({"ford,r1", "ford,r2", "kate,r1", "kate,r2"}));
  EXPECT_EQ(Render(trace), Lines({"v1:1:3", "v4:1:2"}));
}

TEST_F(DependentJoinFixture, RepeatedVariableFirstBoundInsideAtom) {
  auto vx = registry_.Register("vx", 2);
  ASSERT_TRUE(vx.ok());
  for (const auto& [a, b] : {std::pair{"witness", "witness"},
                             std::pair{"witness", "sabrina"},
                             std::pair{"titanic", "titanic"}}) {
    ASSERT_TRUE((*vx)->Add({Term::Constant(a), Term::Constant(b)}).ok());
  }
  // X is free at both positions of vx (a full scan); the second occurrence
  // keeps only the rows equal to the first.
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(
      MustRule("q(X,R) :- vx(X,X), v4(R,X)"), registry_, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(Render(*answers),
            Lines({"witness,r1", "witness,r2", "titanic,r3"}));
  EXPECT_EQ(Render(trace), Lines({"vx:1:3", "v4:1:3"}));
}

/// price(item, cost) and stock(item, qty), with numeric values.
void AddShop(SourceRegistry& registry) {
  auto price = registry.Register("price", 2);
  auto stock = registry.Register("stock", 2);
  ASSERT_TRUE(price.ok() && stock.ok());
  for (const auto& [i, c] :
       {std::pair{"a", "10"}, std::pair{"b", "30"}, std::pair{"c", "15"}}) {
    ASSERT_TRUE((*price)->Add({Term::Constant(i), Term::Constant(c)}).ok());
  }
  for (const auto& [i, q] : {std::pair{"a", "1"}, std::pair{"b", "2"},
                             std::pair{"c", "3"}, std::pair{"c", "4"}}) {
    ASSERT_TRUE((*stock)->Add({Term::Constant(i), Term::Constant(q)}).ok());
  }
}

TEST_F(DependentJoinFixture, ComparisonBetweenRelationalAtoms) {
  AddShop(registry_);
  // The filter drops b before stock is contacted; it ships nothing itself.
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(
      MustRule("q(I,C) :- price(I,C), lt(C, 20), stock(I,Q)"), registry_,
      &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(Render(*answers), Lines({"a,10", "c,15"}));
  EXPECT_EQ(Render(trace), Lines({"price:1:3", "lt:0:0", "stock:1:3"}));
}

TEST_F(DependentJoinFixture, ComparisonOverLaterBoundVariable) {
  AddShop(registry_);
  // Safe (stock binds Q) but not in execution order: Q is unbound when the
  // comparison is reached.
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(
      MustRule("q(I) :- price(I,C), lt(Q, 3), stock(I,Q)"), registry_,
      &trace);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Render(trace), Lines({"price:1:3"}));
}

TEST_F(DependentJoinFixture, ComparisonOverNonNumericValue) {
  auto answers = ExecutePlanDependent(
      MustRule("q(A) :- v1(A,M), lt(M, 3)"), registry_);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(answers.status().message(),
            "comparison over non-numeric term in lt(witness,3)");
}

TEST_F(DependentJoinFixture, ConstantInHead) {
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(MustRule("q(M, ford) :- v1(ford, M)"),
                                      registry_, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(Render(*answers), Lines({"witness,ford", "sabrina,ford"}));
  EXPECT_EQ(Render(trace), Lines({"v1:1:2"}));
}

TEST_F(DependentJoinFixture, DrainMidPlanPadsTrace) {
  // v4 ships nothing for sabrina: the frontier drains at atom 1, so the
  // filter (whose R would not even be numeric) and the last atom are never
  // evaluated, and the trace is padded to one entry per body atom.
  ExecutionTrace trace;
  auto answers = ExecutePlanDependent(
      MustRule("q(A,R) :- v1(A,sabrina), v4(R,sabrina), lt(R, 3), "
               "v1(A,M2)"),
      registry_, &trace);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(Render(*answers), Lines());
  EXPECT_EQ(Render(trace), Lines({"v1:1:1", "v4:1:0", "lt:0:0", "v1:0:0"}));
}

/// A random chain q(X0,Xm) :- s0(X0,X1), ..., s{m-1}(X{m-1},Xm) of two or
/// three atoms over binary sources of 4-11 tuples on 5 constants, served
/// both by `registry` and, as facts, by `db`.
ConjunctiveQuery RandomChain(std::mt19937_64& rng, SourceRegistry& registry,
                             datalog::Database& db) {
  const int m = 2 + static_cast<int>(rng() % 2);
  for (int b = 0; b < m; ++b) {
    auto source = registry.Register("s" + std::to_string(b), 2);
    EXPECT_TRUE(source.ok());
    const int tuples = 4 + static_cast<int>(rng() % 8);
    for (int t = 0; t < tuples; ++t) {
      Term x = Term::Constant("c" + std::to_string(rng() % 5));
      Term y = Term::Constant("c" + std::to_string(rng() % 5));
      EXPECT_TRUE((*source)->Add({x, y}).ok());
      db.AddFact(Atom("s" + std::to_string(b), {x, y}));
    }
  }
  ConjunctiveQuery plan;
  plan.head.predicate = "q";
  plan.head.args = {Term::Variable("X0"),
                    Term::Variable("X" + std::to_string(m))};
  for (int b = 0; b < m; ++b) {
    plan.body.push_back(Atom("s" + std::to_string(b),
                             {Term::Variable("X" + std::to_string(b)),
                              Term::Variable("X" + std::to_string(b + 1))}));
  }
  return plan;
}

TEST(DependentJoinRandomTest, AgreesWithSetOrientedOnRandomChains) {
  std::mt19937_64 rng(77);
  for (int round = 0; round < 10; ++round) {
    SourceRegistry registry;
    datalog::Database db;
    const ConjunctiveQuery plan = RandomChain(rng, registry, db);
    auto dependent = ExecutePlanDependent(plan, registry);
    auto set_oriented = datalog::EvaluateQuery(plan, db);
    ASSERT_TRUE(dependent.ok() && set_oriented.ok());
    std::set<std::vector<Term>> a(dependent->begin(), dependent->end());
    std::set<std::vector<Term>> b2(set_oriented->begin(), set_oriented->end());
    EXPECT_EQ(a, b2) << "round " << round;
  }
}

TEST(DependentJoinRandomTest, AnswerOrderAndTracesMatchGoldenDigest) {
  // The set comparison above would pass a kernel that reorders answers or
  // ships different batches; this pins the exact answer sequences and
  // traces of 50 chains (the first 10 are the ones above).
  std::mt19937_64 rng(77);
  std::string rendered;
  for (int round = 0; round < 50; ++round) {
    SourceRegistry registry;
    datalog::Database db;
    const ConjunctiveQuery plan = RandomChain(rng, registry, db);
    ExecutionTrace trace;
    auto answers = ExecutePlanDependent(plan, registry, &trace);
    ASSERT_TRUE(answers.ok()) << answers.status();
    for (const std::string& line : Render(*answers)) rendered += line + ";";
    rendered += "|";
    for (const std::string& line : Render(trace)) rendered += line + ";";
    rendered += "\n";
  }
  // Computed with the map-per-partial kernel the slot-compiled one replaced.
  EXPECT_EQ(Fnv1a64(rendered), 0xf0e6af12ea76a4afULL) << rendered;
}

}  // namespace
}  // namespace planorder::exec
