#include "core/drips.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace planorder::core {
namespace {

using test::MustMakeMeasure;
using test::MakeWorkload;
using test::Measure;

AbstractPlan TopPlan(const AbstractionForest& forest) {
  AbstractPlan top;
  top.forest = &forest;
  for (int b = 0; b < forest.num_buckets(); ++b) {
    top.nodes.push_back(forest.root(b));
  }
  return top;
}

TEST(DripsTest, EmptyStartsIsNotFound) {
  stats::Workload w = MakeWorkload(2, 2, 0.3, 1);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  utility::ExecutionContext ctx(&w);
  auto result = RunDrips({}, *model, ctx, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

class DripsBestPlanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DripsBestPlanTest, FindsTheArgmaxAcrossMeasures) {
  stats::Workload w = MakeWorkload(3, 6, 0.3, GetParam());
  const PlanSpace space = PlanSpace::FullSpace(w);
  for (Measure measure :
       {Measure::kCoverage, Measure::kCost2, Measure::kFailureNoCache,
        Measure::kMonetary}) {
    auto model = MustMakeMeasure(measure, &w);
    utility::ExecutionContext ctx(&w);
    const AbstractionForest forest = AbstractionForest::Build(
        w, space, AbstractionHeuristic::kByCardinality);
    int64_t evaluations = 0;
    auto result = RunDrips({TopPlan(forest)}, *model, ctx, &evaluations);
    ASSERT_TRUE(result.ok()) << result.status();

    // Ground truth by brute force.
    double best = -1e300;
    for (int a = 0; a < 6; ++a) {
      for (int b = 0; b < 6; ++b) {
        for (int c = 0; c < 6; ++c) {
          best = std::max(best, model->EvaluateConcrete({a, b, c}, ctx));
        }
      }
    }
    EXPECT_NEAR(result->utility, best, 1e-9) << test::MeasureName(measure);
    EXPECT_NEAR(model->EvaluateConcrete(result->plan, ctx), best, 1e-9);
    EXPECT_GT(evaluations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DripsBestPlanTest,
                         ::testing::Values(10, 20, 30, 40));

TEST(DripsTest, ConditionsOnExecutedPlans) {
  stats::Workload w = MakeWorkload(3, 4, 0.5, 50);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  utility::ExecutionContext ctx(&w);
  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest =
      AbstractionForest::Build(w, space, AbstractionHeuristic::kByCardinality);
  auto first = RunDrips({TopPlan(forest)}, *model, ctx, nullptr);
  ASSERT_TRUE(first.ok());
  ctx.MarkExecuted(first->plan);
  auto second = RunDrips({TopPlan(forest)}, *model, ctx, nullptr);
  ASSERT_TRUE(second.ok());
  // The executed plan itself is now worth 0, so the new best must be the
  // conditional argmax.
  double best = -1e300;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        best = std::max(best, model->EvaluateConcrete({a, b, c}, ctx));
      }
    }
  }
  EXPECT_NEAR(second->utility, best, 1e-9);
}

TEST(DripsTest, PaperExampleSavesEvaluations) {
  // Section 5.1's point: Drips finds the best of a 3x3 space evaluating
  // fewer plans than brute force (9 concrete evaluations), despite paying
  // for abstract evaluations. With a good heuristic the count stays below
  // the 2*9-1 = 17 total nodes; assert the stronger paper-style property
  // against concrete-only brute force via a tight workload.
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 16;
  options.overlap_rate = 0.2;
  options.seed = 60;
  auto w = stats::Workload::Generate(options);
  ASSERT_TRUE(w.ok());
  auto model = MustMakeMeasure(Measure::kFailureNoCache, &*w);
  utility::ExecutionContext ctx(&*w);
  const PlanSpace space = PlanSpace::FullSpace(*w);
  const AbstractionForest forest = AbstractionForest::Build(
      *w, space, AbstractionHeuristic::kByCardinality);
  int64_t evaluations = 0;
  auto result = RunDrips({TopPlan(forest)}, *model, ctx, &evaluations);
  ASSERT_TRUE(result.ok());
  // Brute force would evaluate 256 concrete plans.
  EXPECT_LT(evaluations, 256);
}

TEST(DripsTest, ManyRefinementsSurviveCandidateReallocation) {
  // Regression: the candidate vector reserves starts + 64 slots, and every
  // refinement inserts two more candidates, so enough refinements force a
  // reallocation mid-run. The selection of the best abstract/concrete
  // candidate used to hold raw pointers into the vector across insertions;
  // with a single start, >64 insertions guarantee the reallocation happens
  // (index-based bookkeeping keeps this safe; under ASan the old pointer
  // code faults here).
  stats::Workload w = MakeWorkload(3, 16, 0.3, 81);
  auto model = MustMakeMeasure(Measure::kFailureNoCache, &w);
  utility::ExecutionContext ctx(&w);
  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest =
      AbstractionForest::Build(w, space, AbstractionHeuristic::kByCardinality);
  int64_t evaluations = 0;
  auto result = RunDrips({TopPlan(forest)}, *model, ctx, &evaluations);
  ASSERT_TRUE(result.ok()) << result.status();
  // Every inserted candidate costs exactly one evaluation, so this asserts
  // the run really outgrew the initial 1 + 64 reservation.
  EXPECT_GT(evaluations, 65);

  double best = -1e300;
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      for (int c = 0; c < 16; ++c) {
        best = std::max(best, model->EvaluateConcrete({a, b, c}, ctx));
      }
    }
  }
  EXPECT_NEAR(result->utility, best, 1e-9);
}

TEST(DripsTest, MultipleForestsPickGlobalBest) {
  stats::Workload w = MakeWorkload(2, 6, 0.3, 70);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  utility::ExecutionContext ctx(&w);
  PlanSpace full = PlanSpace::FullSpace(w);
  std::vector<PlanSpace> spaces = SplitAround(full, {0, 0});
  std::vector<AbstractionForest> forests;
  forests.reserve(spaces.size());
  for (const PlanSpace& s : spaces) {
    forests.push_back(
        AbstractionForest::Build(w, s, AbstractionHeuristic::kByCardinality));
  }
  std::vector<AbstractPlan> starts;
  for (const auto& f : forests) starts.push_back(TopPlan(f));
  auto result = RunDrips(starts, *model, ctx, nullptr);
  ASSERT_TRUE(result.ok());

  double best = -1e300;
  utility::ConcretePlan argmax;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == 0 && b == 0) continue;  // removed plan
      const double u = model->EvaluateConcrete({a, b}, ctx);
      if (u > best) {
        best = u;
        argmax = {a, b};
      }
    }
  }
  EXPECT_NEAR(result->utility, best, 1e-9);
}

}  // namespace
}  // namespace planorder::core
