#include "core/greedy.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;

TEST(GreedyTest, RefusesNonMonotonicMeasures) {
  stats::Workload w = MakeWorkload(3, 4, 0.3, 1);
  utility::CoverageModel coverage(&w);
  auto greedy =
      GreedyOrderer::Create(&w, &coverage, {PlanSpace::FullSpace(w)});
  EXPECT_FALSE(greedy.ok());
  EXPECT_EQ(greedy.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GreedyTest, FirstPlanIsPerBucketBest) {
  stats::Workload w = MakeWorkload(3, 6, 0.3, 2);
  utility::AdditiveCostModel model(&w);
  auto greedy = GreedyOrderer::Create(&w, &model, {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(greedy.ok());
  auto first = (*greedy)->Next();
  ASSERT_TRUE(first.ok());
  for (int b = 0; b < 3; ++b) {
    double best = model.MonotoneScore(b, 0);
    for (int i = 1; i < w.bucket_size(b); ++i) {
      best = std::max(best, model.MonotoneScore(b, i));
    }
    EXPECT_DOUBLE_EQ(model.MonotoneScore(b, first->plan[b]), best);
  }
}

class GreedyAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyAgreementTest, MatchesBruteForceOnAdditiveCost) {
  stats::Workload w = MakeWorkload(3, 5, 0.3, GetParam());
  utility::AdditiveCostModel model(&w);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};

  auto naive =
      PiOrderer::Create(&w, &model, spaces, /*use_independence=*/false);
  ASSERT_TRUE(naive.ok());
  const auto reference = Drain(**naive);

  auto greedy = GreedyOrderer::Create(&w, &model, spaces);
  ASSERT_TRUE(greedy.ok());
  const auto plans = Drain(**greedy);

  ASSERT_EQ(plans.size(), reference.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_NEAR(plans[i].utility, reference[i].utility, 1e-9) << "at " << i;
  }
}

TEST_P(GreedyAgreementTest, MatchesBruteForceOnUniformAlphaMeasure2) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 5;
  options.alpha_min = 0.4;
  options.alpha_max = 0.4;  // uniform transmission costs
  options.seed = GetParam();
  auto w = stats::Workload::Generate(options);
  ASSERT_TRUE(w.ok());

  auto model = utility::BoundJoinCostModel::Create(
      &*w, utility::MeasureKind::kCost2UniformAlpha);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE((*model)->fully_monotonic());

  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(*w)};
  auto naive = PiOrderer::Create(&*w, model->get(), spaces,
                                 /*use_independence=*/false);
  ASSERT_TRUE(naive.ok());
  const auto reference = Drain(**naive);

  auto greedy = GreedyOrderer::Create(&*w, model->get(), spaces);
  ASSERT_TRUE(greedy.ok());
  const auto plans = Drain(**greedy);

  ASSERT_EQ(plans.size(), reference.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_NEAR(plans[i].utility, reference[i].utility, 1e-9) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyAgreementTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(GreedyTest, UtilitiesNonIncreasing) {
  stats::Workload w = MakeWorkload(4, 4, 0.3, 77);
  utility::AdditiveCostModel model(&w);
  auto greedy = GreedyOrderer::Create(&w, &model, {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(greedy.ok());
  const auto plans = Drain(**greedy);
  EXPECT_EQ(plans.size(), 256u);
  for (size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i].utility, plans[i - 1].utility + 1e-12);
  }
}

TEST(GreedyTest, EvaluationCountGrowsLinearlyInEmissions) {
  // Greedy evaluates one plan per split space: <= m new spaces per emission.
  stats::Workload w = MakeWorkload(3, 10, 0.3, 88);
  utility::AdditiveCostModel model(&w);
  auto greedy = GreedyOrderer::Create(&w, &model, {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(greedy.ok());
  const int k = 20;
  (void)Drain(**greedy, k);
  // 1 initial + at most m per emission.
  EXPECT_LE((*greedy)->plan_evaluations(), 1 + 3 * k);
  EXPECT_LT((*greedy)->plan_evaluations(),
            static_cast<int64_t>(PlanSpace::FullSpace(w).NumPlans()));
}

TEST(GreedyTest, MultipleSpacesMergeExactly) {
  // Greedy over a pre-split space set must match brute force over the union.
  stats::Workload w = MakeWorkload(3, 4, 0.3, 123);
  utility::AdditiveCostModel model(&w);
  PlanSpace full = PlanSpace::FullSpace(w);
  std::vector<PlanSpace> spaces = SplitAround(full, {1, 1, 1});
  ASSERT_GT(spaces.size(), 1u);

  auto naive =
      PiOrderer::Create(&w, &model, spaces, /*use_independence=*/false);
  ASSERT_TRUE(naive.ok());
  const auto reference = Drain(**naive);
  ASSERT_EQ(reference.size(), full.NumPlans() - 1);

  auto greedy = GreedyOrderer::Create(&w, &model, spaces);
  ASSERT_TRUE(greedy.ok());
  const auto plans = Drain(**greedy);
  ASSERT_EQ(plans.size(), reference.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_NEAR(plans[i].utility, reference[i].utility, 1e-9) << "at " << i;
  }
}

TEST(GreedyTest, ExhaustsAndReportsNotFound) {
  stats::Workload w = MakeWorkload(2, 2, 0.3, 99);
  utility::AdditiveCostModel model(&w);
  auto greedy = GreedyOrderer::Create(&w, &model, {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(Drain(**greedy).size(), 4u);
  auto next = (*greedy)->Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace planorder::core
