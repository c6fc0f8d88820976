#include "utility/measures.h"

#include <gtest/gtest.h>

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

TEST(FindIndependentGroupPlanTest, DefaultEnumerationIsSound) {
  // Exercise the base-class fallback through a model that does not override
  // it; the returned witness must actually be independent of the others.
  stats::Workload w = test::MakeWorkload(2, 4, 0.5, 13);
  CoverageModel model(&w);
  const stats::StatSummary* nodes[] = {&w.summary(0, 0), &w.summary(1, 0)};
  ConcretePlan other = {0, 0};
  std::vector<const ConcretePlan*> others = {&other};
  auto witness = model.FindIndependentGroupPlan(
      NodeSpan(nodes, 2), others);
  if (witness.has_value()) {
    EXPECT_TRUE(model.Independent(*witness, other));
  } else {
    // Singleton group vs itself: correctly reports no independent member.
    EXPECT_FALSE(model.Independent({0, 0}, other));
  }
}

}  // namespace
}  // namespace planorder::utility
