#include "utility/coverage_model.h"

#include <random>

#include <gtest/gtest.h>

#include "core/abstraction.h"
#include "core/plan_space.h"

namespace planorder::utility {
namespace {

using core::AbstractionForest;
using core::AbstractionHeuristic;
using core::AbstractPlan;
using core::PlanSpace;

stats::Workload MakeWorkload(uint64_t seed, int bucket_size = 6,
                             double overlap = 0.3) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = bucket_size;
  options.regions_per_bucket = 12;
  options.overlap_rate = overlap;
  options.seed = seed;
  auto w = stats::Workload::Generate(options);
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(*w);
}

TEST(CoverageModelTest, CoverageOfFreshPlanIsBoxVolume) {
  stats::Workload w = MakeWorkload(1);
  CoverageModel model(&w);
  ExecutionContext ctx(&w);
  const ConcretePlan plan = {0, 0, 0};
  std::vector<stats::RegionMask> box;
  for (int b = 0; b < 3; ++b) box.push_back(w.source(b, 0).regions);
  EXPECT_DOUBLE_EQ(model.EvaluateConcrete(plan, ctx),
                   ctx.universe().BoxVolume(box));
}

TEST(CoverageModelTest, ExecutedPlanHasZeroResidualCoverage) {
  stats::Workload w = MakeWorkload(2);
  CoverageModel model(&w);
  ExecutionContext ctx(&w);
  ctx.MarkExecuted({1, 1, 1});
  EXPECT_DOUBLE_EQ(model.EvaluateConcrete({1, 1, 1}, ctx), 0.0);
}

TEST(CoverageModelTest, DiminishingReturnsHolds) {
  stats::Workload w = MakeWorkload(3);
  CoverageModel model(&w);
  EXPECT_TRUE(model.diminishing_returns());
  EXPECT_FALSE(model.fully_monotonic());
  ExecutionContext ctx(&w);
  std::mt19937_64 rng(3);
  double last = model.EvaluateConcrete({0, 1, 2}, ctx);
  for (int i = 0; i < 20; ++i) {
    ConcretePlan executed(3);
    for (int b = 0; b < 3; ++b) {
      executed[b] = static_cast<int>(rng() % w.bucket_size(b));
    }
    ctx.MarkExecuted(executed);
    const double now = model.EvaluateConcrete({0, 1, 2}, ctx);
    EXPECT_LE(now, last + 1e-12);
    last = now;
  }
}

TEST(CoverageModelTest, IndependenceIsBoxDisjointness) {
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  stats::SourceStats left, right, both;
  left.regions.bits = 0b0011;
  right.regions.bits = 0b1100;
  both.regions.bits = 0b0110;
  buckets[0] = {left, right, both};
  buckets[1] = {left, right, both};
  auto w = stats::Workload::FromParts(
      buckets, {std::vector<double>(4, 0.25), std::vector<double>(4, 0.25)},
      1.0, {10.0, 10.0});
  ASSERT_TRUE(w.ok());
  CoverageModel model(&*w);
  // Disjoint at bucket 0 -> independent regardless of bucket 1.
  EXPECT_TRUE(model.Independent({0, 2}, {1, 2}));
  // Overlapping everywhere -> dependent.
  EXPECT_FALSE(model.Independent({2, 2}, {0, 0}));
  // Independence actually means the utility doesn't move.
  ExecutionContext ctx(&*w);
  const double before = model.EvaluateConcrete({0, 2}, ctx);
  ctx.MarkExecuted({1, 2});
  EXPECT_DOUBLE_EQ(model.EvaluateConcrete({0, 2}, ctx), before);
}

TEST(CoverageModelTest, GroupIndependence) {
  stats::Workload w = MakeWorkload(4);
  CoverageModel model(&w);
  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest =
      AbstractionForest::Build(w, space, AbstractionHeuristic::kByCardinality);
  AbstractPlan top;
  top.forest = &forest;
  for (int b = 0; b < 3; ++b) top.nodes.push_back(forest.root(b));
  const auto summaries = top.Summaries();
  const NodeSpan nodes(summaries.data(), summaries.size());
  // Sound: whenever the group claims independence, every member must be
  // independent.
  std::mt19937_64 rng(4);
  for (int i = 0; i < 20; ++i) {
    ConcretePlan d(3);
    for (int b = 0; b < 3; ++b) d[b] = static_cast<int>(rng() % w.bucket_size(b));
    if (model.GroupIndependentOf(nodes, d)) {
      for (int x = 0; x < w.bucket_size(0); ++x) {
        EXPECT_TRUE(model.Independent({x, 0, 0}, d));
      }
    }
  }
}

TEST(CoverageModelTest, GroupContainsIndependentPlanSoundAndUseful) {
  stats::Workload w = MakeWorkload(5, /*bucket_size=*/5, /*overlap=*/0.2);
  CoverageModel model(&w);
  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest =
      AbstractionForest::Build(w, space, AbstractionHeuristic::kByCardinality);
  AbstractPlan top;
  top.forest = &forest;
  for (int b = 0; b < 3; ++b) top.nodes.push_back(forest.root(b));
  const auto summaries = top.Summaries();
  const NodeSpan nodes(summaries.data(), summaries.size());

  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    std::vector<ConcretePlan> executed_storage;
    for (int i = 0; i < 3; ++i) {
      ConcretePlan e(3);
      for (int b = 0; b < 3; ++b) {
        e[b] = static_cast<int>(rng() % w.bucket_size(b));
      }
      executed_storage.push_back(std::move(e));
    }
    std::vector<const ConcretePlan*> executed;
    for (const auto& e : executed_storage) executed.push_back(&e);

    const bool claimed =
        model.FindIndependentGroupPlan(nodes, executed).has_value();
    // Brute-force ground truth over all concrete members.
    bool truth = false;
    for (int a = 0; a < w.bucket_size(0) && !truth; ++a) {
      for (int b = 0; b < w.bucket_size(1) && !truth; ++b) {
        for (int c = 0; c < w.bucket_size(2) && !truth; ++c) {
          const ConcretePlan s = {a, b, c};
          bool all = true;
          for (const auto* e : executed) {
            if (!model.Independent(s, *e)) {
              all = false;
              break;
            }
          }
          truth = all;
        }
      }
    }
    // Exact in this model (budget not hit at this size).
    EXPECT_EQ(claimed, truth) << "round " << round;
  }
}

TEST(CoverageModelTest, EmptyOthersAlwaysContainsIndependentPlan) {
  stats::Workload w = MakeWorkload(6);
  CoverageModel model(&w);
  const auto& summary = w.summary(0, 0);
  const stats::StatSummary* one[] = {&summary, &w.summary(1, 0),
                                     &w.summary(2, 0)};
  EXPECT_TRUE(
      model.FindIndependentGroupPlan(NodeSpan(one, 3), {}).has_value());
}

/// Abstract coverage intervals must enclose all members, under execution.
class CoverageEnclosureTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverageEnclosureTest, AbstractIntervalsEncloseAllMembers) {
  stats::Workload w = MakeWorkload(GetParam());
  CoverageModel model(&w);
  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest =
      AbstractionForest::Build(w, space, AbstractionHeuristic::kByMaskSimilarity);
  ExecutionContext ctx(&w);
  std::mt19937_64 rng(GetParam() * 31 + 1);
  for (int round = 0; round < 6; ++round) {
    AbstractPlan plan;
    plan.forest = &forest;
    plan.nodes.resize(w.num_buckets());
    for (int b = 0; b < w.num_buckets(); ++b) {
      int node = forest.root(b);
      while (!forest.is_leaf(node) && (rng() & 1)) {
        node = (rng() & 1) ? forest.left(node) : forest.right(node);
      }
      plan.nodes[b] = node;
    }
    const auto summaries = plan.Summaries();
    const Interval interval =
        model.Evaluate(NodeSpan(summaries.data(), summaries.size()), ctx);
    EXPECT_GE(interval.lo(), -1e-12);
    std::vector<size_t> cursor(plan.nodes.size(), 0);
    while (true) {
      ConcretePlan concrete(plan.nodes.size());
      for (size_t b = 0; b < plan.nodes.size(); ++b) {
        concrete[b] = forest.summary(plan.nodes[b]).members[cursor[b]];
      }
      const double u = model.EvaluateConcrete(concrete, ctx);
      EXPECT_GE(u, interval.lo() - 1e-9);
      EXPECT_LE(u, interval.hi() + 1e-9);
      size_t b = 0;
      for (; b < plan.nodes.size(); ++b) {
        if (++cursor[b] < forest.summary(plan.nodes[b]).members.size()) break;
        cursor[b] = 0;
      }
      if (b == plan.nodes.size()) break;
    }
    ConcretePlan executed(w.num_buckets());
    for (int b = 0; b < w.num_buckets(); ++b) {
      executed[b] = static_cast<int>(rng() % w.bucket_size(b));
    }
    ctx.MarkExecuted(executed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageEnclosureTest,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace planorder::utility
