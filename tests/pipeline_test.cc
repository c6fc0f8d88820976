#include "exec/pipeline.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "exec/synthetic_domain.h"
#include "reformulation/statistics.h"

namespace planorder::exec {
namespace {

using datalog::ParseRule;

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    stats::WorkloadOptions options;
    options.query_length = 2;
    options.bucket_size = 4;
    options.overlap_rate = 0.4;
    options.regions_per_bucket = 8;
    options.seed = 77;
    auto domain = BuildSyntheticDomain(options, /*num_answers=*/150);
    ASSERT_TRUE(domain.ok());
    domain_ = std::move(*domain);
  }

  std::unique_ptr<SyntheticDomain> domain_;
};

TEST_F(PipelineFixture, StreamsExecutableRewritingsInOrder) {
  OrderingPipeline::Options options;
  options.measure = utility::MeasureKind::kFailureNoCache;
  auto pipeline = OrderingPipeline::Create(&domain_->catalog, domain_->query,
                                           &domain_->workload, options);
  ASSERT_TRUE(pipeline.ok());
  double last = 1e300;
  int emitted = 0;
  while (true) {
    auto next = (*pipeline)->Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
      break;
    }
    ++emitted;
    EXPECT_LE(next->utility, last + 1e-12);
    last = next->utility;
    EXPECT_TRUE(next->plan.rewriting.ValidateSafety().ok());
    EXPECT_EQ(next->plan.rewriting.body.size(), 2u);
  }
  EXPECT_EQ(emitted, 16);  // 4 x 4, identity views: all sound
  EXPECT_GT((*pipeline)->plan_evaluations(), 0);
}

TEST_F(PipelineFixture, RespectsBindingPatterns) {
  // Make every bucket-1 source require its first argument bound: plans stay
  // executable (bucket 0 binds it), and the rewriting orders bucket 0 first.
  for (datalog::SourceId id : domain_->source_ids[1]) {
    ASSERT_TRUE(domain_->catalog.SetBindingPattern(id, "bf").ok());
  }
  OrderingPipeline::Options options;
  options.measure = utility::MeasureKind::kCost2;
  auto pipeline = OrderingPipeline::Create(&domain_->catalog, domain_->query,
                                           &domain_->workload, options);
  ASSERT_TRUE(pipeline.ok());
  auto next = (*pipeline)->Next();
  ASSERT_TRUE(next.ok()) << next.status();
  // First atom must be a bucket-0 source (name prefix v0_).
  EXPECT_EQ(next->plan.rewriting.body[0].predicate.substr(0, 3), "v0_");
}

TEST_F(PipelineFixture, ExplicitAlgorithmOverridesAuto) {
  OrderingPipeline::Options options;
  options.measure = utility::MeasureKind::kCoverage;
  options.algorithm = core::OrdererKind::kPi;
  auto pipeline = OrderingPipeline::Create(&domain_->catalog, domain_->query,
                                           &domain_->workload, options);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->algorithm_name(), "pi");
}

TEST_F(PipelineFixture, RejectsMisalignedWorkload) {
  // A workload with the wrong bucket structure is rejected up front.
  stats::WorkloadOptions options;
  options.query_length = 3;  // query has 2 subgoals
  options.bucket_size = 4;
  options.seed = 5;
  auto wrong = stats::Workload::Generate(options);
  ASSERT_TRUE(wrong.ok());
  auto pipeline = OrderingPipeline::Create(
      &domain_->catalog, domain_->query, &*wrong, OrderingPipeline::Options{});
  EXPECT_FALSE(pipeline.ok());
}

TEST_F(PipelineFixture, WorksWithEstimatedStatistics) {
  // The full adoptable path: estimate statistics from the instances, then
  // stream plans — coverage ordering over estimated stats.
  auto buckets =
      reformulation::BuildBuckets(domain_->query, domain_->catalog);
  ASSERT_TRUE(buckets.ok());
  auto estimated = reformulation::EstimateWorkloadFromInstances(
      domain_->query, domain_->catalog, *buckets, domain_->source_facts);
  ASSERT_TRUE(estimated.ok());
  OrderingPipeline::Options options;
  options.measure = utility::MeasureKind::kCoverage;
  auto pipeline = OrderingPipeline::Create(&domain_->catalog, domain_->query,
                                           &*estimated, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  EXPECT_EQ((*pipeline)->algorithm_name(), "streamer");
  auto next = (*pipeline)->Next();
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next->utility, 0.0);
}

}  // namespace
}  // namespace planorder::exec
