#include "reference/inverse_rules.h"

#include <set>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "reference/enumerate.h"
#include "reformulation/rewriting.h"

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
       }) {
    EXPECT_TRUE(catalog.AddSourceFromText(text).ok());
  }
  return catalog;
}

TEST(MakeInverseRulesTest, OneRulePerViewAtom) {
  Catalog catalog = MovieCatalog();
  const std::vector<datalog::Rule> rules = MakeInverseRules(catalog);
  // v1 has 2 body atoms, v3 and v4 one each.
  ASSERT_EQ(rules.size(), 4u);
  // v1's play-in inverse: play-in(A,M) :- v1(A,M) (no existentials).
  EXPECT_EQ(rules[0].ToString(), "play-in(A,M) :- v1(A,M)");
  EXPECT_EQ(rules[1].ToString(), "american(M) :- v1(A,M)");
}

TEST(MakeInverseRulesTest, ExistentialsBecomeSkolems) {
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(A) :- p(A, B)").ok());
  const std::vector<datalog::Rule> rules = MakeInverseRules(catalog);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].ToString(), "p(A,f_v_B(A)) :- v(A)");
}

TEST(BucketsFromInverseRulesTest, MatchesBucketAlgorithmOnMovieDomain) {
  Catalog catalog = MovieCatalog();
  auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
  ASSERT_TRUE(q.ok());
  auto ir_buckets = BucketsFromInverseRules(*q, catalog);
  ASSERT_TRUE(ir_buckets.ok());
  auto direct = BuildBuckets(*q, catalog);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(ir_buckets->buckets, direct->buckets);
}

TEST(BucketsFromInverseRulesTest, SkolemBlockedDistinguishedVariable) {
  // A source that projects away a distinguished variable would answer it
  // with a Skolem term; it must not enter the bucket.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v_proj(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v_full(A,B) :- p(A, B)").ok());
  auto q = ParseRule("q(A,B) :- p(A,B)");
  ASSERT_TRUE(q.ok());
  auto buckets = BucketsFromInverseRules(*q, catalog);
  ASSERT_TRUE(buckets.ok());
  EXPECT_EQ(buckets->buckets[0], (std::vector<datalog::SourceId>{1}));
}

TEST(AnswerWithInverseRulesTest, MatchesUnionOfSoundPlans) {
  Catalog catalog = MovieCatalog();
  auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
  ASSERT_TRUE(q.ok());

  datalog::Database source_db;
  auto add = [&](const char* text) {
    auto atom = ParseAtom(text);
    ASSERT_TRUE(atom.ok());
    source_db.AddFact(*atom);
  };
  add("v1(ford, witness)");
  add("v3(ford, sabrina)");
  add("v3(kate, titanic)");
  add("v4(rev1, witness)");
  add("v4(rev2, sabrina)");
  add("v4(rev3, titanic)");

  auto via_rules = AnswerWithInverseRules(*q, catalog, source_db);
  ASSERT_TRUE(via_rules.ok()) << via_rules.status();
  std::set<std::vector<datalog::Term>> rule_answers(via_rules->begin(),
                                                    via_rules->end());

  auto plans = EnumerateSoundPlans(*q, catalog);
  ASSERT_TRUE(plans.ok());
  std::set<std::vector<datalog::Term>> plan_answers;
  for (const QueryPlan& plan : *plans) {
    auto tuples = datalog::EvaluateQuery(plan.rewriting, source_db);
    ASSERT_TRUE(tuples.ok());
    plan_answers.insert(tuples->begin(), tuples->end());
  }
  EXPECT_EQ(rule_answers, plan_answers);
  EXPECT_EQ(rule_answers.size(), 2u);  // witness & sabrina reviews for ford
}

TEST(AnswerWithInverseRulesTest, SkolemJoinsProduceNoFalseAnswers) {
  // Skolem terms may join inside the evaluation but must never surface.
  Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr(C) :- r(B, C)").ok());
  auto q = ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(q.ok());
  datalog::Database source_db;
  auto a1 = ParseAtom("vp(x)");
  auto a2 = ParseAtom("vr(y)");
  ASSERT_TRUE(a1.ok() && a2.ok());
  source_db.AddFact(*a1);
  source_db.AddFact(*a2);
  auto answers = AnswerWithInverseRules(*q, catalog, source_db);
  ASSERT_TRUE(answers.ok());
  // The Skolems f_vp_B(x) and f_vr_B(y) differ, so the join fails: no
  // answers, exactly as certain answers require.
  EXPECT_TRUE(answers->empty());
}

}  // namespace
}  // namespace planorder::reformulation
