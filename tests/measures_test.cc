#include "utility/measures.h"

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_space.h"
#include "test_util.h"

namespace planorder::utility {
namespace {

stats::Workload VaryingAlphaWorkload() {
  return test::MakeWorkload(3, 5, 0.3, 9);
}

TEST(MeasureKindNameTest, NamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (MeasureKind kind :
       {MeasureKind::kAdditive, MeasureKind::kCost2UniformAlpha,
        MeasureKind::kCost2, MeasureKind::kFailureNoCache,
        MeasureKind::kFailureCache, MeasureKind::kMonetary,
        MeasureKind::kMonetaryCache, MeasureKind::kCoverage}) {
    EXPECT_TRUE(names.insert(MeasureKindName(kind)).second);
  }
  EXPECT_EQ(MeasureKindName(MeasureKind::kCoverage), "coverage");
  EXPECT_EQ(MeasureKindName(MeasureKind::kFailureCache), "failure-cache");
}

TEST(MakeMeasureTest, PropertyMatrixMatchesThePaper) {
  stats::Workload w = VaryingAlphaWorkload();
  struct Expectation {
    MeasureKind kind;
    bool monotonic;
    bool diminishing;
    bool independent;
  };
  // Section 3 / Section 6 applicability matrix.
  const Expectation expectations[] = {
      {MeasureKind::kAdditive, true, true, true},
      {MeasureKind::kCost2, false, true, true},
      {MeasureKind::kFailureNoCache, false, true, true},
      {MeasureKind::kFailureCache, false, false, false},
      {MeasureKind::kMonetary, false, true, true},
      {MeasureKind::kMonetaryCache, false, false, false},
      {MeasureKind::kCoverage, false, true, false},
  };
  for (const Expectation& e : expectations) {
    auto model = MakeMeasure(e.kind, &w);
    ASSERT_TRUE(model.ok()) << MeasureKindName(e.kind);
    EXPECT_EQ((*model)->fully_monotonic(), e.monotonic)
        << MeasureKindName(e.kind);
    EXPECT_EQ((*model)->diminishing_returns(), e.diminishing)
        << MeasureKindName(e.kind);
    EXPECT_EQ((*model)->fully_independent(), e.independent)
        << MeasureKindName(e.kind);
  }
}

TEST(MakeMeasureTest, UniformAlphaRequiresUniformWorkload) {
  stats::Workload varying = VaryingAlphaWorkload();
  EXPECT_FALSE(MakeMeasure(MeasureKind::kCost2UniformAlpha, &varying).ok());

  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 3;
  options.alpha_min = 0.4;
  options.alpha_max = 0.4;
  options.seed = 10;
  auto uniform = stats::Workload::Generate(options);
  ASSERT_TRUE(uniform.ok());
  auto model = MakeMeasure(MeasureKind::kCost2UniformAlpha, &*uniform);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE((*model)->fully_monotonic());
}

TEST(ExecutionContextTest, TracksExecutionState) {
  stats::Workload w = test::MakeWorkload(2, 3, 0.4, 11);
  ExecutionContext ctx(&w);
  EXPECT_EQ(ctx.epoch(), 0);
  EXPECT_FALSE(ctx.IsCached(0, 1));

  ctx.MarkExecuted({1, 2});
  EXPECT_EQ(ctx.epoch(), 1);
  EXPECT_TRUE(ctx.IsCached(0, 1));
  EXPECT_TRUE(ctx.IsCached(1, 2));
  EXPECT_FALSE(ctx.IsCached(0, 0));
  ASSERT_EQ(ctx.executed().size(), 1u);
  EXPECT_EQ(ctx.executed()[0], (ConcretePlan{1, 2}));

  // The executed plan's coverage box is covered.
  std::vector<stats::RegionMask> box = {w.source(0, 1).regions,
                                        w.source(1, 2).regions};
  EXPECT_DOUBLE_EQ(ctx.universe().UncoveredBoxVolume(box), 0.0);

  ctx.Reset();
  EXPECT_EQ(ctx.epoch(), 0);
  EXPECT_FALSE(ctx.IsCached(0, 1));
  EXPECT_GT(ctx.universe().UncoveredBoxVolume(box), 0.0);
}

TEST(ExecutionContextTest, CachingAccumulatesAcrossPlans) {
  stats::Workload w = test::MakeWorkload(2, 3, 0.4, 12);
  ExecutionContext ctx(&w);
  ctx.MarkExecuted({0, 0});
  ctx.MarkExecuted({1, 0});
  EXPECT_TRUE(ctx.IsCached(0, 0));
  EXPECT_TRUE(ctx.IsCached(0, 1));
  EXPECT_TRUE(ctx.IsCached(1, 0));
  EXPECT_FALSE(ctx.IsCached(1, 1));
}

TEST(FindIndependentGroupPlanTest, WitnessIsAMemberIndependentOfOthers) {
  // Every measure runs its own witness search. Whatever it returns must pick
  // a member of each node and be Independent of every plan in `others`; an
  // empty `others` must always yield a witness.
  test::SeededScenario scenario("measures_test", 2718);
  std::mt19937_64& rng = scenario.rng();
  const stats::Workload varying =
      test::MakeWorkload(3, 6, 0.3, scenario.seed());
  const stats::Workload uniform =
      test::MakeWorkload(3, 6, 0.3, scenario.seed(), /*uniform_alpha=*/true);
  const core::PlanSpace full = core::PlanSpace::FullSpace(varying);
  const std::vector<ConcretePlan> plans = core::EnumeratePlans(full);

  for (MeasureKind kind : test::kAllMeasures) {
    SCOPED_TRACE(MeasureKindName(kind));
    const stats::Workload& w =
        kind == MeasureKind::kCost2UniformAlpha ? uniform : varying;
    auto model = test::MustMakeMeasure(kind, &w);
    const core::AbstractionForest forest = core::AbstractionForest::Build(
        w, full, core::AbstractionHeuristic::kByCardinality);
    int witnesses_with_others = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const core::AbstractPlan group = test::RandomAbstractPlan(forest, rng);
      const std::vector<const stats::StatSummary*> summaries =
          group.Summaries();
      const NodeSpan span(summaries.data(), summaries.size());
      std::vector<ConcretePlan> others(rng() % 4);
      for (ConcretePlan& other : others) other = plans[rng() % plans.size()];
      std::vector<const ConcretePlan*> other_ptrs;
      for (const ConcretePlan& other : others) other_ptrs.push_back(&other);

      const std::optional<ConcretePlan> witness =
          model->FindIndependentGroupPlan(span, other_ptrs);
      if (others.empty()) {
        EXPECT_TRUE(witness.has_value()) << "trial " << trial;
      }
      if (!witness.has_value()) continue;
      if (!others.empty()) ++witnesses_with_others;
      ASSERT_EQ(witness->size(), summaries.size());
      for (size_t b = 0; b < summaries.size(); ++b) {
        const std::vector<int>& members = summaries[b]->members;
        EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                       (*witness)[b]))
            << "trial " << trial << " bucket " << b;
      }
      for (const ConcretePlan& other : others) {
        EXPECT_TRUE(model->Independent(*witness, other)) << "trial " << trial;
      }
    }
    // The sampler must have found witnesses against non-empty `others`, or
    // the independence checks above are vacuous.
    EXPECT_GT(witnesses_with_others, 0);
  }
}

}  // namespace
}  // namespace planorder::utility
