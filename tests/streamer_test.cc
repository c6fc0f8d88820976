#include "core/streamer.h"

#include <gtest/gtest.h>

#include "reference/pi.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MustMakeMeasure;
using test::MakeWorkload;
using test::Measure;

TEST(StreamerTest, RefusesMeasuresWithoutDiminishingReturns) {
  stats::Workload w = MakeWorkload(3, 4, 0.3, 1);
  auto model = MustMakeMeasure(Measure::kFailureCache, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  EXPECT_FALSE(streamer.ok());
  EXPECT_EQ(streamer.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamerTest, GraphStaysSmallWithFullIndependence) {
  // With a no-caching cost measure every link stays valid forever, so the
  // dominance graph never needs re-expansion: subsequent emissions should
  // add few evaluations.
  stats::Workload w = MakeWorkload(3, 12, 0.3, 2);
  auto model = MustMakeMeasure(Measure::kFailureNoCache, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(streamer.ok());
  (void)Drain(**streamer, 1);
  const int64_t after_first = (*streamer)->plan_evaluations();
  (void)Drain(**streamer, 9);
  const int64_t after_ten = (*streamer)->plan_evaluations();
  // First plan costs the bulk; nine more cost less than nine times that.
  EXPECT_LT(after_ten - after_first, 9 * after_first);
  // And far fewer total evaluations than brute force (1728 plans, 10 rounds).
  EXPECT_LT(after_ten, 1728);
}

TEST(StreamerTest, EvaluatesFarFewerPlansThanPiInFirstIteration) {
  // The paper reports < 4% of PI's first-iteration evaluations for coverage;
  // assert a slightly looser 10% so seed changes don't flake.
  stats::Workload w = MakeWorkload(3, 12, 0.3, 3);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};

  auto streamer = StreamerOrderer::Create(&w, model.get(), spaces);
  ASSERT_TRUE(streamer.ok());
  (void)Drain(**streamer, 1);

  auto model2 = MustMakeMeasure(Measure::kCoverage, &w);
  auto pi = PiOrderer::Create(&w, model2.get(), spaces);
  ASSERT_TRUE(pi.ok());
  (void)Drain(**pi, 1);

  EXPECT_LT((*streamer)->plan_evaluations(), (*pi)->plan_evaluations() / 10);
}

TEST(StreamerTest, IntrospectionCountsAreConsistent) {
  stats::Workload w = MakeWorkload(3, 6, 0.3, 4);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(streamer.ok());
  EXPECT_EQ((*streamer)->num_alive_nodes(), 1);  // the top plan
  EXPECT_EQ((*streamer)->num_alive_links(), 0);
  const auto plans = Drain(**streamer, 5);
  ASSERT_EQ(plans.size(), 5u);
  EXPECT_GT((*streamer)->num_alive_nodes(), 0);
  // Emitted plans are removed from the graph; the partition invariant means
  // alive nodes can represent at most 216 - 5 + ... plans; just sanity-check
  // the counts are nonnegative and bounded by total node allocations.
  EXPECT_LE((*streamer)->num_alive_links(),
            (*streamer)->num_alive_nodes() * (*streamer)->num_alive_nodes());
}

TEST(StreamerTest, DrainEmitsEveryPlanExactlyOnce) {
  stats::Workload w = MakeWorkload(3, 5, 0.5, 5);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(streamer.ok());
  const auto plans = Drain(**streamer);
  EXPECT_EQ(plans.size(), 125u);
  std::set<utility::ConcretePlan> unique;
  for (const auto& p : plans) unique.insert(p.plan);
  EXPECT_EQ(unique.size(), 125u);
}

TEST(StreamerTest, CoverageUtilitiesNonIncreasing) {
  // Under diminishing returns the emitted utility sequence is non-increasing
  // (the next-best conditional utility can only fall as more executes).
  stats::Workload w = MakeWorkload(3, 6, 0.4, 6);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(streamer.ok());
  const auto plans = Drain(**streamer);
  for (size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i].utility, plans[i - 1].utility + 1e-9) << "at " << i;
  }
}

TEST(StreamerTest, StalenessChecksScaleWithEmissionsNotRefinements) {
  // Regression guard for the frontier-candidate rescan: the nondominated
  // frontier is staleness-checked once per emission (step 2.a), not once per
  // refinement. A drain of E emissions over a frontier of at most F nodes
  // must perform at most E * F_max checks; the old per-refinement rescan
  // multiplied that by the refinements per emission (tens here, since every
  // ComputeNext re-walked the whole frontier after each split).
  stats::Workload w = MakeWorkload(3, 8, 0.5, 8);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  ASSERT_TRUE(streamer.ok());
  const auto plans = Drain(**streamer);
  ASSERT_EQ(plans.size(), 512u);
  // Frontier size is bounded by the alive-node count, itself bounded by the
  // number of leaves (512) — but in practice it stays far smaller. Assert
  // the per-emission average against the hard frontier bound; the old
  // behavior exceeded it by the refinement count per emission.
  const int64_t checks = (*streamer)->num_staleness_checks();
  EXPECT_GT(checks, 0);
  EXPECT_LE(checks, int64_t{512} * 512);
  // Tighter practical bound: average frontier seen per emission stays well
  // under 64 nodes for this workload.
  EXPECT_LT(checks, int64_t{512} * 64);
}

TEST(StreamerTest, HighOverlapStillExact) {
  // High overlap invalidates most links (the paper's observed slowdown);
  // correctness must not degrade.
  stats::Workload w = MakeWorkload(3, 5, 0.9, 7);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  auto streamer = StreamerOrderer::Create(&w, model.get(), spaces);
  ASSERT_TRUE(streamer.ok());
  auto model2 = MustMakeMeasure(Measure::kCoverage, &w);
  auto naive =
      PiOrderer::Create(&w, model2.get(), spaces, /*use_independence=*/false);
  ASSERT_TRUE(naive.ok());
  const auto a = Drain(**streamer);
  const auto b = Drain(**naive);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].utility, b[i].utility, 1e-9) << "at " << i;
  }
}

}  // namespace
}  // namespace planorder::core
