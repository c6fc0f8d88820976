/// Randomized cross-validation of the three reformulation paths. For random
/// LAV catalogs, queries and database instances:
///
///  - every plan the bucket algorithm emits is sound, also instance-level;
///  - the inverse-rule program computes the certain answers, which must
///    contain the union of the bucket plans' answers, and must EQUAL the
///    union of the MiniCon plans' answers (both characterize the maximally
///    contained rewriting for conjunctive queries);
///  - with projection-free views the bucket union matches too.
///
/// Two independent implementations (top-down rewriting vs bottom-up datalog
/// with Skolems) agreeing on random inputs is the strongest correctness
/// signal this module has.

#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "reference/enumerate.h"
#include "reference/inverse_rules.h"
#include "reference/minicon.h"
#include "reformulation/rewriting.h"
#include "test_util.h"

namespace planorder::reformulation {
namespace {

using datalog::Atom;
using datalog::Catalog;
using datalog::ConjunctiveQuery;
using datalog::Database;
using datalog::Term;

struct FuzzDomain {
  Catalog catalog;
  ConjunctiveQuery query;
  Database schema_facts;
  Database source_facts;
};

/// Chain-style random domains: relations p0..p{m-1} of arity 2 over a small
/// constant pool; sources see one or two adjacent subgoals with random
/// head projections (kept safe/retrievable by construction choices below).
FuzzDomain MakeDomain(std::mt19937_64& rng, bool allow_projection) {
  FuzzDomain d;
  const int m = 2 + static_cast<int>(rng() % 2);  // 2..3 subgoals
  for (int b = 0; b < m; ++b) {
    EXPECT_TRUE(
        d.catalog.schema().AddRelation("p" + std::to_string(b), 2).ok());
  }
  // Query: q(X0, Xm) :- p0(X0,X1), ..., p{m-1}(X{m-1},Xm).
  d.query.head.predicate = "q";
  d.query.head.args = {Term::Variable("X0"),
                       Term::Variable("X" + std::to_string(m))};
  for (int b = 0; b < m; ++b) {
    d.query.body.push_back(
        Atom("p" + std::to_string(b),
             {Term::Variable("X" + std::to_string(b)),
              Term::Variable("X" + std::to_string(b + 1))}));
  }

  // Sources: for each subgoal 2-3 single-atom views (some projecting when
  // allowed), plus occasionally a two-atom view joining adjacent subgoals
  // whose join variable may be projected away (the MiniCon-only case).
  int source_counter = 0;
  for (int b = 0; b < m; ++b) {
    const int count = 2 + static_cast<int>(rng() % 2);
    for (int i = 0; i < count; ++i) {
      const std::string name = "v" + std::to_string(source_counter++);
      datalog::SourceDescription s;
      s.name = name;
      s.view.head = Atom(name, {Term::Variable("A"), Term::Variable("B")});
      s.view.body = {Atom("p" + std::to_string(b),
                          {Term::Variable("A"), Term::Variable("B")})};
      EXPECT_TRUE(d.catalog.AddSource(std::move(s)).ok());
    }
  }
  for (int b = 0; b + 1 < m; ++b) {
    if (rng() % 2 == 0) continue;
    const std::string name = "w" + std::to_string(source_counter++);
    datalog::SourceDescription s;
    s.name = name;
    const bool project_join = allow_projection && (rng() % 2 == 0);
    if (project_join) {
      s.view.head = Atom(name, {Term::Variable("A"), Term::Variable("C")});
    } else {
      s.view.head = Atom(name, {Term::Variable("A"), Term::Variable("B"),
                                Term::Variable("C")});
    }
    s.view.body = {Atom("p" + std::to_string(b),
                        {Term::Variable("A"), Term::Variable("B")}),
                   Atom("p" + std::to_string(b + 1),
                        {Term::Variable("B"), Term::Variable("C")})};
    EXPECT_TRUE(d.catalog.AddSource(std::move(s)).ok());
  }

  // Random schema instance over a small constant pool; sources materialize
  // random subsets of their full view extensions (sources are incomplete).
  const int pool = 5;
  auto constant = [](int x) { return Term::Constant("c" + std::to_string(x)); };
  for (int b = 0; b < m; ++b) {
    const int facts = 6 + static_cast<int>(rng() % 6);
    for (int f = 0; f < facts; ++f) {
      d.schema_facts.AddFact(
          Atom("p" + std::to_string(b),
               {constant(static_cast<int>(rng() % pool)),
                constant(static_cast<int>(rng() % pool))}));
    }
  }
  for (datalog::SourceId id = 0; id < d.catalog.num_sources(); ++id) {
    auto tuples =
        datalog::EvaluateQuery(d.catalog.source(id).view, d.schema_facts);
    EXPECT_TRUE(tuples.ok());
    for (const auto& tuple : *tuples) {
      if (rng() % 4 == 0) continue;  // drop ~25%: sources are incomplete
      d.source_facts.AddFact(Atom(d.catalog.source(id).name, tuple));
    }
  }
  return d;
}

using AnswerSet = std::set<std::vector<Term>>;

AnswerSet UnionOfPlanAnswers(const std::vector<QueryPlan>& plans,
                             const Database& source_facts) {
  AnswerSet answers;
  for (const QueryPlan& plan : plans) {
    auto tuples = datalog::EvaluateQuery(plan.rewriting, source_facts);
    EXPECT_TRUE(tuples.ok());
    answers.insert(tuples->begin(), tuples->end());
  }
  return answers;
}

class ReformulationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReformulationFuzzTest, AllPathsAgreeOnCertainAnswers) {
  test::SeededScenario scenario("reformulation_fuzz_test", GetParam());
  std::mt19937_64& rng = scenario.rng();
  for (int round = 0; round < 8; ++round) {
    FuzzDomain d = MakeDomain(rng, /*allow_projection=*/true);

    // Ground truth: answers over the (hidden) schema instance bound every
    // sound plan's output.
    auto truth = datalog::EvaluateQuery(d.query, d.schema_facts);
    ASSERT_TRUE(truth.ok());
    const AnswerSet truth_set(truth->begin(), truth->end());

    auto bucket_plans = EnumerateSoundPlans(d.query, d.catalog);
    ASSERT_TRUE(bucket_plans.ok());
    const AnswerSet bucket_answers =
        UnionOfPlanAnswers(*bucket_plans, d.source_facts);

    auto minicon_plans = EnumerateMiniConPlans(d.query, d.catalog);
    ASSERT_TRUE(minicon_plans.ok()) << minicon_plans.status();
    const AnswerSet minicon_answers =
        UnionOfPlanAnswers(*minicon_plans, d.source_facts);

    auto certain =
        AnswerWithInverseRules(d.query, d.catalog, d.source_facts);
    ASSERT_TRUE(certain.ok());
    const AnswerSet certain_set(certain->begin(), certain->end());

    // Soundness everywhere: nothing outside the ground truth.
    for (const auto& t : bucket_answers) EXPECT_TRUE(truth_set.contains(t));
    for (const auto& t : minicon_answers) EXPECT_TRUE(truth_set.contains(t));
    for (const auto& t : certain_set) EXPECT_TRUE(truth_set.contains(t));

    // The inverse-rule program computes the certain answers; MiniCon's
    // rewritings are maximally contained, so their union must match.
    EXPECT_EQ(minicon_answers, certain_set) << "round " << round;

    // The naive bucket combination is contained in both (it misses only
    // the projected-join rewritings).
    for (const auto& t : bucket_answers) {
      EXPECT_TRUE(certain_set.contains(t)) << "round " << round;
    }
  }
}

TEST_P(ReformulationFuzzTest, ProjectionFreeViewsMakeAllPathsEqual) {
  test::SeededScenario scenario("reformulation_fuzz_test",
                                GetParam() * 977 + 3);
  std::mt19937_64& rng = scenario.rng();
  for (int round = 0; round < 8; ++round) {
    FuzzDomain d = MakeDomain(rng, /*allow_projection=*/false);
    auto bucket_plans = EnumerateSoundPlans(d.query, d.catalog);
    ASSERT_TRUE(bucket_plans.ok());
    const AnswerSet bucket_answers =
        UnionOfPlanAnswers(*bucket_plans, d.source_facts);
    auto certain =
        AnswerWithInverseRules(d.query, d.catalog, d.source_facts);
    ASSERT_TRUE(certain.ok());
    const AnswerSet certain_set(certain->begin(), certain->end());
    EXPECT_EQ(bucket_answers, certain_set) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReformulationFuzzTest,
                         ::testing::Values(301, 302, 303, 304, 305));

}  // namespace
}  // namespace planorder::reformulation
