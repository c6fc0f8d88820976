#include "reference/batch_topk.h"

#include <gtest/gtest.h>

#include "reference/pi.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

TEST(BatchTopKTest, RefusesConditionalMeasures) {
  stats::Workload w = MakeWorkload(3, 4, 0.3, 1);
  for (Measure measure :
       {Measure::kCoverage, Measure::kFailureCache, Measure::kMonetaryCache}) {
    auto model = MustMakeMeasure(measure, &w);
    auto result =
        BatchTopK(&w, model.get(), {PlanSpace::FullSpace(w)}, 5);
    EXPECT_FALSE(result.ok()) << test::MeasureName(measure);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(BatchTopKTest, RejectsNonPositiveK) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 2);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  EXPECT_FALSE(BatchTopK(&w, model.get(), {PlanSpace::FullSpace(w)}, 0).ok());
}

class BatchTopKAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchTopKAgreementTest, MatchesIncrementalOrderingPrefix) {
  stats::Workload w = MakeWorkload(3, 6, 0.3, GetParam());
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  for (Measure measure :
       {Measure::kCost2, Measure::kFailureNoCache, Measure::kMonetary}) {
    auto ref_model = MustMakeMeasure(measure, &w);
    auto pi = PiOrderer::Create(&w, ref_model.get(), spaces);
    ASSERT_TRUE(pi.ok());
    const auto reference = Drain(**pi, 20);

    auto model = MustMakeMeasure(measure, &w);
    auto batch = BatchTopK(&w, model.get(), spaces, 20);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), reference.size());
    for (size_t i = 0; i < batch->size(); ++i) {
      EXPECT_NEAR((*batch)[i].utility, reference[i].utility, 1e-9)
          << test::MeasureName(measure) << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchTopKAgreementTest,
                         ::testing::Values(5, 6, 7, 8));

TEST(BatchTopKTest, KLargerThanSpaceReturnsEverythingSorted) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 9);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  auto batch = BatchTopK(&w, model.get(), {PlanSpace::FullSpace(w)}, 1000);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 9u);
  for (size_t i = 1; i < batch->size(); ++i) {
    EXPECT_LE((*batch)[i].utility, (*batch)[i - 1].utility + 1e-12);
  }
}

TEST(BatchTopKTest, PrunesAgainstFullEnumeration) {
  stats::Workload w = MakeWorkload(3, 12, 0.3, 10);
  auto model = MustMakeMeasure(Measure::kFailureNoCache, &w);
  int64_t evaluations = 0;
  auto batch = BatchTopK(&w, model.get(), {PlanSpace::FullSpace(w)}, 5,
                         AbstractionHeuristic::kByCardinality, &evaluations);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 5u);
  // Far fewer evaluations than the 1728-plan brute force.
  EXPECT_LT(evaluations, 1728 / 2);
}

TEST(BatchTopKTest, EmptySpacesYieldNoPlans) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 11);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  PlanSpace empty;
  empty.buckets = {{0, 1}, {}};
  auto batch = BatchTopK(&w, model.get(), {empty}, 3);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

}  // namespace
}  // namespace planorder::core
