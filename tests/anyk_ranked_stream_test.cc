/// Tests of the ranked mediation stream: byte-identical agreement with the
/// sort-everything oracle on synthetic domains, plan-budget behavior, the
/// zero-sound-plan edge case and stats accounting.

#include "anyk/ranked_stream.h"

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/brute_force.h"
#include "core/orderer_factory.h"
#include "core/plan_space.h"
#include "datalog/parser.h"
#include "exec/synthetic_domain.h"
#include "reformulation/executable_order.h"
#include "reformulation/rewriting.h"
#include "test_util.h"
#include "utility/coverage_model.h"

namespace planorder::anyk {
namespace {

stats::WorkloadOptions SmallOptions(uint64_t seed) {
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 3;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = seed;
  return options;
}

std::vector<RankedAnswer> Drain(RankedAnswerStream& stream) {
  std::vector<RankedAnswer> answers;
  while (true) {
    auto next = stream.Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << next.status();
      break;
    }
    answers.push_back(*next);
  }
  return answers;
}

/// Every sound, executable rewriting of the domain's full Cartesian product.
std::vector<datalog::ConjunctiveQuery> UsableRewritings(
    const exec::SyntheticDomain& d) {
  std::vector<datalog::ConjunctiveQuery> rewritings;
  const size_t num_buckets = d.source_ids.size();
  std::vector<size_t> odometer(num_buckets, 0);
  while (true) {
    std::vector<datalog::SourceId> choice(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      choice[b] = d.source_ids[b][odometer[b]];
    }
    auto plan = reformulation::BuildSoundPlan(d.query, d.catalog, choice);
    EXPECT_TRUE(plan.ok()) << plan.status();
    if (plan->has_value() &&
        reformulation::FindExecutableOrder(**plan, d.catalog).ok()) {
      rewritings.push_back((**plan).rewriting);
    }
    size_t b = 0;
    for (; b < num_buckets; ++b) {
      if (++odometer[b] < d.source_ids[b].size()) break;
      odometer[b] = 0;
    }
    if (b == num_buckets) break;
  }
  return rewritings;
}

/// The sort-everything oracle over UsableRewritings.
std::vector<RankedAnswer> Oracle(const exec::SyntheticDomain& d,
                                 const WeightOptions& weights) {
  auto oracle =
      BruteForceRankedUnion(UsableRewritings(d), d.source_facts, weights);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  return *oracle;
}

StatusOr<RankedAnswerStream> OpenFullBudget(const exec::SyntheticDomain& d,
                                            const WeightOptions& weights) {
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  EXPECT_TRUE(orderer.ok()) << orderer.status();
  RankedAnswerStream::Options options;
  options.weights = weights;
  options.max_plans =
      int(core::PlanSpace::FullSpace(d.workload).NumPlans());
  return RankedAnswerStream::Open(d.catalog, d.query, d.source_facts,
                                  d.source_ids, **orderer, options);
}

TEST(RankedAnswerStreamTest, MatchesSortEverythingOracleByteForByte) {
  for (uint64_t seed : {71u, 72u, 73u}) {
    auto domain = exec::BuildSyntheticDomain(SmallOptions(seed), 120);
    ASSERT_TRUE(domain.ok());
    const exec::SyntheticDomain& d = **domain;
    for (Aggregation aggregation : {Aggregation::kSum, Aggregation::kMax}) {
      WeightOptions weights;
      weights.seed = seed;
      weights.aggregation = aggregation;
      auto stream = OpenFullBudget(d, weights);
      ASSERT_TRUE(stream.ok()) << stream.status();
      const std::vector<RankedAnswer> streamed = Drain(*stream);
      const std::vector<RankedAnswer> oracle = Oracle(d, weights);
      ASSERT_EQ(streamed.size(), oracle.size());
      for (size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_TRUE(streamed[i] == oracle[i])
            << "seed " << seed << " " << AggregationName(aggregation)
            << " diverged at position " << i;
      }
      EXPECT_TRUE(stream->done());
      EXPECT_EQ(stream->stats().answers_emitted, streamed.size());
    }
  }
}

TEST(RankedAnswerStreamTest, EmissionWeaklyDecreasesAndDeduplicates) {
  auto domain = exec::BuildSyntheticDomain(SmallOptions(74), 200);
  ASSERT_TRUE(domain.ok());
  WeightOptions weights;
  weights.seed = 5;
  auto stream = OpenFullBudget(**domain, weights);
  ASSERT_TRUE(stream.ok());
  const std::vector<RankedAnswer> streamed = Drain(*stream);
  ASSERT_FALSE(streamed.empty());
  for (size_t i = 1; i < streamed.size(); ++i) {
    EXPECT_FALSE(RankedBefore(streamed[i], streamed[i - 1]))
        << "canonical order violated at " << i;
    EXPECT_NE(streamed[i].tuple, streamed[i - 1].tuple);
  }
  std::unordered_set<std::vector<datalog::Term>, datalog::TermVectorHash>
      seen;
  for (const RankedAnswer& answer : streamed) {
    EXPECT_TRUE(seen.insert(answer.tuple).second) << "duplicate emission";
  }
}

TEST(RankedAnswerStreamTest, PlanBudgetBoundsThePlanPhase) {
  auto domain = exec::BuildSyntheticDomain(SmallOptions(75), 150);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;
  WeightOptions weights;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  RankedAnswerStream::Options options;
  options.weights = weights;
  options.max_plans = 1;
  auto stream = RankedAnswerStream::Open(d.catalog, d.query, d.source_facts,
                                         d.source_ids, **orderer, options);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->stats().plans_considered, 1);
  EXPECT_LE(stream->stats().open_plans, 1u);
  const std::vector<RankedAnswer> streamed = Drain(*stream);

  // Everything the single best plan emits is a subset of the full union,
  // with identical (content-hashed) weights.
  const std::vector<RankedAnswer> oracle = Oracle(d, weights);
  EXPECT_LE(streamed.size(), oracle.size());
  for (const RankedAnswer& answer : streamed) {
    bool found = false;
    for (const RankedAnswer& reference : oracle) {
      if (reference == answer) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "answer missing from the full union";
  }
}

TEST(RankedAnswerStreamTest, ZeroSoundPlansYieldAnEmptyStream) {
  // Same construction as MediatorStreamTest: every view projects away the
  // join variable, so the plan phase discards everything.
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("r", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp1(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vp2(A) :- p(A, B)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr1(C) :- r(B, C)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("vr2(C) :- r(B, C)").ok());
  auto query = datalog::ParseRule("q(A,C) :- p(A,B), r(B,C)");
  ASSERT_TRUE(query.ok());

  const stats::Workload workload = test::MakeWorkload(2, 2, 0.4, 65);
  utility::CoverageModel model(&workload);
  auto orderer = core::MakeOrderer({}, &workload, &model,
                                   {core::PlanSpace::FullSpace(workload)});
  ASSERT_TRUE(orderer.ok());
  datalog::Database facts;
  RankedAnswerStream::Options options;
  options.max_plans = 4;
  auto stream = RankedAnswerStream::Open(catalog, *query, facts,
                                         {{0, 1}, {2, 3}}, **orderer, options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_EQ(stream->stats().sound_plans, 0u);
  EXPECT_EQ(stream->stats().open_plans, 0u);
  auto next = stream->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(stream->done());
}

TEST(RankedAnswerStreamTest, RejectsNonPositivePlanBudget) {
  auto domain = exec::BuildSyntheticDomain(SmallOptions(76), 20);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  auto orderer = core::MakeOrderer(
      {}, &d.workload, &model, {core::PlanSpace::FullSpace(d.workload)});
  ASSERT_TRUE(orderer.ok());
  RankedAnswerStream::Options options;
  options.max_plans = 0;
  auto stream = RankedAnswerStream::Open(d.catalog, d.query, d.source_facts,
                                         d.source_ids, **orderer, options);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(RankedAnswerStreamTest, EachRelationIsIndexedOnce) {
  auto domain = exec::BuildSyntheticDomain(SmallOptions(77), 120);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;
  auto stream = OpenFullBudget(d, WeightOptions{});
  ASSERT_TRUE(stream.ok()) << stream.status();
  // The plans read every relation of the domain several times over, but
  // the stream scans each (predicate, arity) once.
  std::set<std::pair<std::string, size_t>> relations;
  size_t atoms = 0;
  for (const datalog::ConjunctiveQuery& rewriting : UsableRewritings(d)) {
    for (const datalog::Atom& atom : rewriting.body) {
      relations.emplace(atom.predicate, atom.args.size());
      ++atoms;
    }
  }
  EXPECT_GT(stream->stats().open_plans, 1u);
  EXPECT_LT(relations.size(), atoms);
  EXPECT_EQ(stream->stats().relations_indexed, relations.size());
}

TEST(RankedAnswerStreamTest, RejectsBadWeightScale) {
  auto domain = exec::BuildSyntheticDomain(SmallOptions(78), 20);
  ASSERT_TRUE(domain.ok());
  for (double scale : {3.0, 0.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    WeightOptions weights;
    weights.scale = scale;
    auto stream = OpenFullBudget(**domain, weights);
    ASSERT_FALSE(stream.ok()) << scale;
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument) << scale;
  }
}

}  // namespace
}  // namespace planorder::anyk
