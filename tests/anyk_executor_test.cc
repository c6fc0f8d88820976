/// Unit tests of the any-k enumerator: non-increasing emission, agreement
/// with the brute-force oracle on hand-built and randomized facts, the
/// semi-join pruning, the error contract on cyclic / comparison queries and
/// bad weight options, and the shared RelationIndex: an enumerator over a
/// shared index emits exactly the witness sequence of one that owns its
/// index.

#include "anyk/executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/brute_force.h"
#include "anyk/relation_index.h"
#include "anyk/weights.h"
#include "datalog/parser.h"
#include "test_util.h"

namespace planorder::anyk {
namespace {

datalog::Atom MustParseAtom(const std::string& text) {
  auto atom = datalog::ParseAtom(text);
  EXPECT_TRUE(atom.ok()) << atom.status();
  return *atom;
}

datalog::ConjunctiveQuery MustParseRule(const std::string& text) {
  auto rule = datalog::ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  return *rule;
}

/// Drains the enumerator, checking the weights never increase, and folds the
/// witnesses into answer -> best weight (first occurrence wins, which the
/// emission contract says is the best).
std::map<std::vector<datalog::Term>, double> DrainToBestWeights(
    AnyKEnumerator& enumerator) {
  std::map<std::vector<datalog::Term>, double> best;
  double previous = std::numeric_limits<double>::infinity();
  while (true) {
    auto next = enumerator.Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << next.status();
      break;
    }
    EXPECT_LE(next->weight, previous) << "emission weight increased";
    previous = next->weight;
    best.emplace(next->tuple, next->weight);  // first occurrence only
  }
  return best;
}

std::map<std::vector<datalog::Term>, double> ToBestWeights(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<datalog::Term>, double> best;
  for (const RankedAnswer& answer : answers) {
    best.emplace(answer.tuple, answer.weight);
  }
  return best;
}

TEST(AnyKExecutorTest, ChainJoinMatchesBruteForce) {
  datalog::Database facts;
  for (const char* text : {"p(a,b)", "p(a,c)", "p(d,b)", "r(b,x)", "r(b,y)",
                           "r(c,x)", "r(z,z)"}) {
    facts.AddFact(MustParseAtom(text));
  }
  const auto query = MustParseRule("q(A,C) :- p(A,B), r(B,C)");
  for (Aggregation aggregation : {Aggregation::kSum, Aggregation::kMax}) {
    WeightOptions options;
    options.seed = 7;
    options.aggregation = aggregation;
    auto enumerator = AnyKEnumerator::Create(query, facts, options);
    ASSERT_TRUE(enumerator.ok()) << enumerator.status();
    auto oracle = BruteForceRankedAnswers(query, facts, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(DrainToBestWeights(**enumerator), ToBestWeights(*oracle))
        << AggregationName(aggregation);
  }
}

TEST(AnyKExecutorTest, ConstantsAndRepeatedVariablesFilterRows) {
  datalog::Database facts;
  for (const char* text :
       {"p(a,a)", "p(a,b)", "p(b,b)", "r(a,k)", "r(b,k)", "r(b,m)"}) {
    facts.AddFact(MustParseAtom(text));
  }
  // Only rows with X = X survive the self-join filter, and r is pinned to
  // the constant k.
  const auto query = MustParseRule("q(X,C) :- p(X,X), r(X,C)");
  WeightOptions options;
  auto enumerator = AnyKEnumerator::Create(query, facts, options);
  ASSERT_TRUE(enumerator.ok()) << enumerator.status();
  auto oracle = BruteForceRankedAnswers(query, facts, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const auto best = DrainToBestWeights(**enumerator);
  EXPECT_EQ(best, ToBestWeights(*oracle));
  EXPECT_EQ(best.size(), 3u);  // (a,k), (b,k), (b,m)
}

TEST(AnyKExecutorTest, EmptyJoinExhaustsImmediately) {
  datalog::Database facts;
  facts.AddFact(MustParseAtom("p(a,b)"));
  facts.AddFact(MustParseAtom("r(c,d)"));  // no join partner for b
  const auto query = MustParseRule("q(A,C) :- p(A,B), r(B,C)");
  WeightOptions options;
  auto enumerator = AnyKEnumerator::Create(query, facts, options);
  ASSERT_TRUE(enumerator.ok()) << enumerator.status();
  EXPECT_EQ((*enumerator)->Peek(), nullptr);
  auto next = (*enumerator)->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
}

TEST(AnyKExecutorTest, PeekIsStableAndMatchesNext) {
  datalog::Database facts;
  for (const char* text : {"p(a,b)", "p(c,b)", "r(b,x)", "r(b,y)"}) {
    facts.AddFact(MustParseAtom(text));
  }
  const auto query = MustParseRule("q(A,C) :- p(A,B), r(B,C)");
  WeightOptions options;
  auto enumerator = AnyKEnumerator::Create(query, facts, options);
  ASSERT_TRUE(enumerator.ok()) << enumerator.status();
  while (true) {
    const RankedAnswer* peeked = (*enumerator)->Peek();
    if (peeked == nullptr) break;
    const RankedAnswer copy = *peeked;
    EXPECT_EQ(*(*enumerator)->Peek(), copy);  // repeated peek: same answer
    auto next = (*enumerator)->Next();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, copy);
  }
  EXPECT_EQ((*enumerator)->witnesses_emitted(), 4u);  // 2 x 2 witnesses
}

TEST(AnyKExecutorTest, CyclicQueryIsRejected) {
  datalog::Database facts;
  const auto query = MustParseRule("q(A) :- p(A,B), r(B,C), s(C,A)");
  WeightOptions options;
  auto enumerator = AnyKEnumerator::Create(query, facts, options);
  ASSERT_FALSE(enumerator.ok());
  EXPECT_EQ(enumerator.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AnyKExecutorTest, ComparisonAtomsAreUnimplemented) {
  datalog::Database facts;
  const auto query = MustParseRule("q(A,B) :- p(A,B), lt(A,B)");
  WeightOptions options;
  auto enumerator = AnyKEnumerator::Create(query, facts, options);
  ASSERT_FALSE(enumerator.ok());
  EXPECT_EQ(enumerator.status().code(), StatusCode::kUnimplemented);
}

TEST(AnyKExecutorTest, RandomizedStarJoinsMatchBruteForce) {
  // Star query q(A,B,C) :- e(H,A), f(H,B), g(H,C) over random small domains:
  // every draw must agree with the oracle under both aggregations.
  const auto query = MustParseRule("q(A,B,C) :- e(H,A), f(H,B), g(H,C)");
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    test::SeededScenario scenario("anyk_executor_test", seed);
    std::mt19937_64& rng = scenario.rng();
    datalog::Database facts;
    const char* predicates[] = {"e", "f", "g"};
    for (const char* predicate : predicates) {
      const int tuples = 3 + int(rng() % 12);
      for (int t = 0; t < tuples; ++t) {
        facts.AddFact(MustParseAtom(
            std::string(predicate) + "(h" + std::to_string(rng() % 4) +
            ",v" + std::to_string(rng() % 6) + ")"));
      }
    }
    for (Aggregation aggregation : {Aggregation::kSum, Aggregation::kMax}) {
      WeightOptions options;
      options.seed = seed * 31;
      options.aggregation = aggregation;
      auto enumerator = AnyKEnumerator::Create(query, facts, options);
      ASSERT_TRUE(enumerator.ok()) << enumerator.status();
      auto oracle = BruteForceRankedAnswers(query, facts, options);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      EXPECT_EQ(DrainToBestWeights(**enumerator), ToBestWeights(*oracle))
          << AggregationName(aggregation);
    }
  }
}

TEST(AnyKExecutorTest, PowerOfTwoScaleIsExact) {
  datalog::Database facts;
  for (const char* text : {"p(a,b)", "p(c,b)", "r(b,x)", "r(b,y)"}) {
    facts.AddFact(MustParseAtom(text));
  }
  const auto query = MustParseRule("q(A,C) :- p(A,B), r(B,C)");
  WeightOptions options;
  auto base = AnyKEnumerator::Create(query, facts, options);
  ASSERT_TRUE(base.ok());
  WeightOptions scaled_options = options;
  scaled_options.scale = 8.0;
  auto scaled = AnyKEnumerator::Create(query, facts, scaled_options);
  ASSERT_TRUE(scaled.ok());
  while (true) {
    auto a = (*base)->Next();
    auto b = (*scaled)->Next();
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) break;
    EXPECT_EQ(a->tuple, b->tuple);
    EXPECT_EQ(a->weight * 8.0, b->weight);  // bit-exact, not approximate
  }
}

std::vector<RankedAnswer> DrainSequence(AnyKEnumerator& enumerator) {
  std::vector<RankedAnswer> witnesses;
  while (true) {
    auto next = enumerator.Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << next.status();
      break;
    }
    witnesses.push_back(*next);
  }
  return witnesses;
}

/// The three implementations agree on `queries` over `facts`: each query's
/// enumerator over one shared index emits the same witness sequence
/// (tuples, weight bits, order) as a standalone enumerator, and the union of
/// their best weights is BruteForceRankedUnion's. Returns the shared index.
std::unique_ptr<RelationIndex> ExpectSharedStandaloneOracleAgree(
    const std::vector<datalog::ConjunctiveQuery>& queries,
    const datalog::Database& facts, const WeightOptions& options) {
  auto index = RelationIndex::Create(facts, options);
  EXPECT_TRUE(index.ok()) << index.status();
  std::map<std::vector<datalog::Term>, double> best;
  for (const datalog::ConjunctiveQuery& query : queries) {
    auto standalone = AnyKEnumerator::Create(query, facts, options);
    auto shared = AnyKEnumerator::Create(query, index->get());
    EXPECT_TRUE(standalone.ok()) << standalone.status();
    EXPECT_TRUE(shared.ok()) << shared.status();
    if (!standalone.ok() || !shared.ok()) continue;
    const std::vector<RankedAnswer> want = DrainSequence(**standalone);
    const std::vector<RankedAnswer> got = DrainSequence(**shared);
    EXPECT_EQ(got.size(), want.size()) << query.ToString();
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].tuple, want[i].tuple) << query.ToString() << " @" << i;
      EXPECT_EQ(std::memcmp(&got[i].weight, &want[i].weight, sizeof(double)),
                0)
          << query.ToString() << " @" << i;
    }
    for (const RankedAnswer& witness : got) {
      auto [it, inserted] = best.emplace(witness.tuple, witness.weight);
      if (!inserted && witness.weight > it->second) it->second = witness.weight;
    }
  }
  auto oracle = BruteForceRankedUnion(queries, facts, options);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  if (oracle.ok()) {
    EXPECT_EQ(best, ToBestWeights(*oracle));
  }
  return std::move(index).value();
}

datalog::Database MustParseFacts(const std::vector<std::string>& texts) {
  datalog::Database facts;
  for (const std::string& text : texts) facts.AddFact(MustParseAtom(text));
  return facts;
}

TEST(AnyKSharedIndexTest, TwoPlansSharingASourceIndexItOnce) {
  const datalog::Database facts =
      MustParseFacts({"p(a,b)", "p(a,c)", "p(d,b)", "r(b,x)", "r(c,y)",
                      "s(b,z)", "s(c,z)", "s(c,w)"});
  const std::vector<datalog::ConjunctiveQuery> queries = {
      MustParseRule("q(A,C) :- p(A,B), r(B,C)"),
      MustParseRule("q(A,C) :- p(A,B), s(B,C)")};
  for (Aggregation aggregation : {Aggregation::kSum, Aggregation::kMax}) {
    WeightOptions options;
    options.seed = 11;
    options.aggregation = aggregation;
    const auto index =
        ExpectSharedStandaloneOracleAgree(queries, facts, options);
    // p is read by both plans and scanned once: p, r, s.
    EXPECT_EQ(index->relations_indexed(), 3u);
  }
}

TEST(AnyKSharedIndexTest, AbsentConstantYieldsNoRowsNotAnError) {
  const datalog::Database facts =
      MustParseFacts({"p(a,b)", "p(c,d)", "r(b,x)", "r(zz,x)"});
  // "nowhere" occurs in no fact; "zz" only in r, not in p.
  ExpectSharedStandaloneOracleAgree(
      {MustParseRule("q(A) :- p(A,nowhere)"),
       MustParseRule("q(A) :- p(A,zz)"),
       MustParseRule("q(A) :- p(A,B), r(B,nowhere)")},
      facts, WeightOptions{});
  auto enumerator = AnyKEnumerator::Create(
      MustParseRule("q(A) :- p(A,nowhere)"), facts, WeightOptions{});
  ASSERT_TRUE(enumerator.ok()) << enumerator.status();
  EXPECT_EQ((*enumerator)->Peek(), nullptr);
}

TEST(AnyKSharedIndexTest, ConstantsFilterRows) {
  const datalog::Database facts = MustParseFacts(
      {"p(a,b)", "p(c,b)", "p(a,e)", "r(b,k)", "r(b,m)", "r(e,k)"});
  ExpectSharedStandaloneOracleAgree(
      {MustParseRule("q(A,C) :- p(A,b), r(b,C)"),
       MustParseRule("q(A,B) :- p(A,B), r(B,k)")},
      facts, WeightOptions{});
}

TEST(AnyKSharedIndexTest, RepeatedVariables) {
  const datalog::Database facts = MustParseFacts(
      {"p(a,a)", "p(a,b)", "p(b,b)", "t(a,b,a)", "t(a,b,b)", "t(b,b,b)",
       "r(a,k)", "r(b,k)", "r(b,m)"});
  ExpectSharedStandaloneOracleAgree(
      {MustParseRule("q(X,C) :- p(X,X), r(X,C)"),
       MustParseRule("q(X,Y) :- t(X,Y,X), p(Y,Y)")},
      facts, WeightOptions{});
}

TEST(AnyKSharedIndexTest, OnePredicateWithRowsOfTwoArities) {
  const datalog::Database facts = MustParseFacts(
      {"p(a,b)", "p(b,c)", "p(a,b,c)", "p(b,c,d)", "p(c,d,e)"});
  for (Aggregation aggregation : {Aggregation::kSum, Aggregation::kMax}) {
    WeightOptions options;
    options.aggregation = aggregation;
    const auto index = ExpectSharedStandaloneOracleAgree(
        {MustParseRule("q(A,B) :- p(A,B)"),
         MustParseRule("q(A,D) :- p(A,B), p(B,C,D)")},
        facts, options);
    EXPECT_EQ(index->relations_indexed(), 2u);  // p/2 and p/3
  }
}

TEST(AnyKSharedIndexTest, CartesianProductEdge) {
  const datalog::Database facts =
      MustParseFacts({"p(a,b)", "p(c,d)", "r(x,y)", "r(z,y)", "r(w,v)"});
  ExpectSharedStandaloneOracleAgree(
      {MustParseRule("q(A,C) :- p(A,B), r(C,D)"),
       MustParseRule("q(A,C,E) :- p(A,B), r(C,D), p(E,F)")},
      facts, WeightOptions{});
}

TEST(AnyKSharedIndexTest, ConstantHeadArgument) {
  const datalog::Database facts =
      MustParseFacts({"p(a,b)", "p(c,b)", "r(b,x)", "r(b,y)"});
  const auto query = MustParseRule("q(A,fixed,C) :- p(A,B), r(B,C)");
  ExpectSharedStandaloneOracleAgree({query}, facts, WeightOptions{});
  auto enumerator = AnyKEnumerator::Create(query, facts, WeightOptions{});
  ASSERT_TRUE(enumerator.ok()) << enumerator.status();
  const RankedAnswer* first = (*enumerator)->Peek();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tuple[1], datalog::Term::Constant("fixed"));
}

TEST(AnyKSharedIndexTest, FunctionTerms) {
  datalog::Database facts = MustParseFacts({"p(a,b)", "r(b,c)"});
  facts.AddFact(MustParseAtom("p(d,f(a))"));
  // A ground function term is a constant like any other.
  ExpectSharedStandaloneOracleAgree(
      {MustParseRule("q(A) :- p(A,f(a))"),
       MustParseRule("q(A,B) :- p(A,B), r(B,C)")},
      facts, WeightOptions{});
  // Non-ground function terms stay unimplemented, in the body and the head,
  // for every entry point.
  for (const char* text : {"q(A) :- p(A,f(B)), r(B,C)",
                           "q(f(A)) :- p(A,B)"}) {
    const auto query = MustParseRule(text);
    auto index = RelationIndex::Create(facts, WeightOptions{});
    ASSERT_TRUE(index.ok());
    auto standalone = AnyKEnumerator::Create(query, facts, WeightOptions{});
    auto shared = AnyKEnumerator::Create(query, index->get());
    auto oracle = BruteForceRankedUnion({query}, facts, WeightOptions{});
    EXPECT_EQ(standalone.status().code(), StatusCode::kUnimplemented) << text;
    EXPECT_EQ(shared.status().code(), StatusCode::kUnimplemented) << text;
    EXPECT_EQ(oracle.status().code(), StatusCode::kUnimplemented) << text;
  }
}

TEST(AnyKSharedIndexTest, RandomizedChainsAgree) {
  // Many plans over a few shared relations, as in a ranked session: every
  // plan over the shared index matches its standalone twin and the union
  // matches the oracle.
  for (uint64_t seed : {1u, 2u, 3u}) {
    test::SeededScenario scenario("anyk_shared_index", seed);
    std::mt19937_64& rng = scenario.rng();
    datalog::Database facts;
    const std::vector<std::string> predicates = {"e", "f", "g", "h"};
    for (const std::string& predicate : predicates) {
      const int tuples = 4 + int(rng() % 10);
      for (int t = 0; t < tuples; ++t) {
        facts.AddFact(MustParseAtom(predicate + "(v" +
                                    std::to_string(rng() % 5) + ",v" +
                                    std::to_string(rng() % 5) + ")"));
      }
    }
    std::vector<datalog::ConjunctiveQuery> queries;
    for (const std::string& a : predicates) {
      for (const std::string& b : predicates) {
        queries.push_back(
            MustParseRule("q(X,Z) :- " + a + "(X,Y), " + b + "(Y,Z)"));
      }
    }
    WeightOptions options;
    options.seed = seed;
    const auto index =
        ExpectSharedStandaloneOracleAgree(queries, facts, options);
    EXPECT_EQ(index->relations_indexed(), predicates.size());
  }
}

TEST(AnyKWeightOptionsTest, BadScaleIsInvalidArgumentAtEveryEntryPoint) {
  const datalog::Database facts = MustParseFacts({"p(a,b)", "r(b,c)"});
  const auto query = MustParseRule("q(A,C) :- p(A,B), r(B,C)");
  for (double scale : {3.0, 0.0, -2.0, 0.3,
                       std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    WeightOptions options;
    options.scale = scale;
    EXPECT_EQ(ValidateWeightOptions(options).code(),
              StatusCode::kInvalidArgument)
        << scale;
    EXPECT_EQ(RelationIndex::Create(facts, options).status().code(),
              StatusCode::kInvalidArgument)
        << scale;
    EXPECT_EQ(AnyKEnumerator::Create(query, facts, options).status().code(),
              StatusCode::kInvalidArgument)
        << scale;
    EXPECT_EQ(BruteForceRankedUnion({query}, facts, options).status().code(),
              StatusCode::kInvalidArgument)
        << scale;
  }
  for (double scale : {1.0, 0.25, 1024.0}) {
    WeightOptions options;
    options.scale = scale;
    EXPECT_TRUE(ValidateWeightOptions(options).ok()) << scale;
  }
}

}  // namespace
}  // namespace planorder::anyk
