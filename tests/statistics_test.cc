#include "reformulation/statistics.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "datalog/parser.h"
#include "exec/mediator.h"
#include "exec/synthetic_domain.h"
#include "utility/coverage_model.h"

namespace planorder::reformulation {
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

TEST(EstimateWorkloadTest, CardinalitiesMatchInstanceCounts) {
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("play-in", 2).ok());
  ASSERT_TRUE(catalog.schema().AddRelation("review-of", 2).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v1(A,M) :- play-in(A,M)").ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v4(R,M) :- review-of(R,M)").ok());
  auto query = ParseRule("q(M,R) :- play-in(ford,M), review-of(R,M)");
  ASSERT_TRUE(query.ok());
  auto buckets = BuildBuckets(*query, catalog);
  ASSERT_TRUE(buckets.ok());

  datalog::Database facts;
  facts.AddFact(MustAtom("v1(ford, witness)"));
  facts.AddFact(MustAtom("v1(ford, sabrina)"));
  facts.AddFact(MustAtom("v1(kate, titanic)"));  // not for ford: excluded
  facts.AddFact(MustAtom("v4(r1, witness)"));

  auto workload =
      EstimateWorkloadFromInstances(*query, catalog, *buckets, facts);
  ASSERT_TRUE(workload.ok()) << workload.status();
  // v1 contributes 2 bindings for "movies starring ford" (kate filtered by
  // the query constant), v4 one review binding.
  EXPECT_DOUBLE_EQ(workload->source(0, 0).cardinality, 2.0);
  EXPECT_DOUBLE_EQ(workload->source(1, 0).cardinality, 1.0);
}

TEST(EstimateWorkloadTest, OverlapReflectsSharedBindings) {
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 2).ok());
  for (const char* text :
       {"a(X,Y) :- p(X,Y)", "b(X,Y) :- p(X,Y)", "c(X,Y) :- p(X,Y)"}) {
    ASSERT_TRUE(catalog.AddSourceFromText(text).ok());
  }
  auto query = ParseRule("q(X,Y) :- p(X,Y)");
  ASSERT_TRUE(query.ok());
  auto buckets = BuildBuckets(*query, catalog);
  ASSERT_TRUE(buckets.ok());

  datalog::Database facts;
  // a and b share (x1,y1); c is disjoint from both.
  facts.AddFact(MustAtom("a(x1, y1)"));
  facts.AddFact(MustAtom("a(x2, y2)"));
  facts.AddFact(MustAtom("b(x1, y1)"));
  facts.AddFact(MustAtom("c(x9, y9)"));

  auto workload =
      EstimateWorkloadFromInstances(*query, catalog, *buckets, facts);
  ASSERT_TRUE(workload.ok());
  const stats::RegionMask ma = workload->source(0, 0).regions;
  const stats::RegionMask mb = workload->source(0, 1).regions;
  EXPECT_TRUE(ma.Intersects(mb));  // shared binding -> shared region
  // Disjoint contents MAY collide under hashing, but with 16 regions and
  // these fixed constants they do not; assert the expected structure.
  const stats::RegionMask mc = workload->source(0, 2).regions;
  EXPECT_FALSE(ma.Intersects(mc));
  EXPECT_FALSE(mb.Intersects(mc));
}

TEST(EstimateWorkloadTest, FixedCostParametersAndEstimatedCardinality) {
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 1).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(X) :- p(X)").ok());
  auto query = ParseRule("q(X) :- p(X)");
  ASSERT_TRUE(query.ok());
  auto buckets = BuildBuckets(*query, catalog);
  ASSERT_TRUE(buckets.ok());
  datalog::Database facts;
  facts.AddFact(MustAtom("v(a)"));

  auto workload =
      EstimateWorkloadFromInstances(*query, catalog, *buckets, facts);
  ASSERT_TRUE(workload.ok());
  // The parameters the instances cannot reveal take fixed values ...
  EXPECT_DOUBLE_EQ(workload->source(0, 0).transmission_cost, 0.25);
  EXPECT_DOUBLE_EQ(workload->source(0, 0).failure_prob, 0.0);
  EXPECT_DOUBLE_EQ(workload->source(0, 0).fee, 1.0);
  // ... while cardinality is estimated from the data, and the domain size
  // is four times the largest cardinality.
  EXPECT_DOUBLE_EQ(workload->source(0, 0).cardinality, 1.0);
  EXPECT_DOUBLE_EQ(workload->domain_size(0), 4.0);
}

TEST(EstimateWorkloadTest, EstimatedWorkloadDrivesAccurateOrdering) {
  // The acid test: materialize a synthetic domain, throw away its designed
  // statistics, re-estimate them from the instances, and check that the
  // coverage estimates on the estimated workload track the real per-plan
  // answer counts.
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 4;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = 91;
  auto domain = exec::BuildSyntheticDomain(options, /*num_answers=*/600);
  ASSERT_TRUE(domain.ok());
  const exec::SyntheticDomain& d = **domain;

  auto buckets = BuildBuckets(d.query, d.catalog);
  ASSERT_TRUE(buckets.ok());
  EstimateOptions estimate_options;
  estimate_options.regions_per_bucket = 32;
  auto estimated = EstimateWorkloadFromInstances(
      d.query, d.catalog, *buckets, d.source_facts, estimate_options);
  ASSERT_TRUE(estimated.ok()) << estimated.status();

  // Cardinalities must match the materialized counts exactly (the domain
  // generator sets them the same way).
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(estimated->source(b, i).cardinality,
                       d.workload.source(b, i).cardinality)
          << "bucket " << b << " source " << i;
    }
  }

  // Order plans by coverage on the ESTIMATED workload and execute them.
  // Hash-based estimation is coarser than designed statistics, so assert
  // robust properties: the first plan is a top-quartile plan by actual
  // answer count, and the curve front-loads at least proportionally.
  utility::CoverageModel model(&*estimated);
  auto orderer = core::MakeOrderer(
      {}, &*estimated, &model, {core::PlanSpace::FullSpace(*estimated)});
  ASSERT_TRUE(orderer.ok());
  exec::Mediator mediator(&d.catalog, d.query, d.source_ids);
  auto result = mediator.Run(**orderer, {.max_plans = 16},
                             *exec::MakeSetOrientedExecutor(&d.source_facts));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), 16u);
  const size_t quarter = result->steps[3].total_answers;
  const size_t full = result->steps.back().total_answers;
  ASSERT_GT(full, 0u);
  // Signature regions reconstruct the generator's cluster structure, so the
  // estimated-statistics ordering front-loads strongly.
  EXPECT_GT(double(quarter), 0.4 * double(full));

  // Actual per-plan answer counts over all 16 plans.
  std::vector<size_t> actual_counts;
  for (const exec::MediatorStep& step : result->steps) {
    actual_counts.push_back(step.answers_from_plan);
  }
  std::vector<size_t> sorted = actual_counts;
  std::sort(sorted.rbegin(), sorted.rend());
  EXPECT_GE(actual_counts.front(), sorted[sorted.size() / 4])
      << "estimated ordering's first plan should be top-quartile by yield";
}

TEST(EstimateWorkloadTest, ValidatesInputs) {
  datalog::Catalog catalog;
  ASSERT_TRUE(catalog.schema().AddRelation("p", 1).ok());
  ASSERT_TRUE(catalog.AddSourceFromText("v(X) :- p(X)").ok());
  auto query = ParseRule("q(X) :- p(X)");
  ASSERT_TRUE(query.ok());
  auto buckets = BuildBuckets(*query, catalog);
  ASSERT_TRUE(buckets.ok());
  datalog::Database facts;
  EstimateOptions options;
  options.regions_per_bucket = 0;
  EXPECT_FALSE(EstimateWorkloadFromInstances(*query, catalog, *buckets, facts,
                                             options)
                   .ok());
  // Mismatched buckets.
  BucketResult wrong;
  EXPECT_FALSE(
      EstimateWorkloadFromInstances(*query, catalog, wrong, facts).ok());
}

}  // namespace
}  // namespace planorder::reformulation
