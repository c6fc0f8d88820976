#include "utility/cost_models.h"

#include <memory>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "core/abstraction.h"
#include "core/plan_space.h"

namespace planorder::utility {
namespace {

using core::AbstractionForest;
using core::AbstractionHeuristic;
using core::AbstractPlan;
using core::PlanSpace;

stats::Workload MakeWorkload(uint64_t seed, double alpha_min = 0.05,
                             double alpha_max = 1.0) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 6;
  options.regions_per_bucket = 12;
  options.seed = seed;
  options.alpha_min = alpha_min;
  options.alpha_max = alpha_max;
  auto w = stats::Workload::Generate(options);
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(*w);
}

TEST(AdditiveCostModelTest, MatchesHandComputedCost) {
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  stats::SourceStats a;
  a.cardinality = 10;
  a.transmission_cost = 0.5;
  a.regions.bits = 1;
  stats::SourceStats b;
  b.cardinality = 20;
  b.transmission_cost = 0.25;
  b.regions.bits = 1;
  buckets[0] = {a};
  buckets[1] = {b};
  auto w = stats::Workload::FromParts(buckets, {{1.0}, {1.0}}, 2.0,
                                      {100.0, 100.0});
  ASSERT_TRUE(w.ok());
  AdditiveCostModel model(&*w);
  ExecutionContext ctx(&*w);
  // cost = (2 + 0.5*10) + (2 + 0.25*20) = 7 + 7 = 14; utility = -14.
  EXPECT_DOUBLE_EQ(model.EvaluateConcrete({0, 0}, ctx), -14.0);
}

TEST(AdditiveCostModelTest, Properties) {
  stats::Workload w = MakeWorkload(3);
  AdditiveCostModel model(&w);
  EXPECT_TRUE(model.fully_monotonic());
  EXPECT_TRUE(model.diminishing_returns());
  EXPECT_TRUE(model.Independent({0, 0, 0}, {0, 0, 0}));
  // Monotone score orders by alpha * n ascending.
  const double score0 = model.MonotoneScore(0, 0);
  const stats::SourceStats& s = w.source(0, 0);
  EXPECT_DOUBLE_EQ(score0, -(s.transmission_cost * s.cardinality));
}

TEST(AdditiveCostModelTest, UtilityUnaffectedByExecutions) {
  stats::Workload w = MakeWorkload(4);
  AdditiveCostModel model(&w);
  ExecutionContext ctx(&w);
  const double before = model.EvaluateConcrete({1, 2, 3}, ctx);
  ctx.MarkExecuted({1, 2, 3});
  ctx.MarkExecuted({0, 0, 0});
  EXPECT_DOUBLE_EQ(model.EvaluateConcrete({1, 2, 3}, ctx), before);
}

TEST(BoundJoinCostModelTest, MatchesPaperFormulaTwoBuckets) {
  // cost(ViVj) = (h + a_i n_i) + (h + a_j * (n_j * n_i / N)), measure (2).
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  stats::SourceStats vi;
  vi.cardinality = 40;
  vi.transmission_cost = 0.5;
  vi.regions.bits = 1;
  stats::SourceStats vj;
  vj.cardinality = 100;
  vj.transmission_cost = 0.2;
  vj.regions.bits = 1;
  buckets[0] = {vi};
  buckets[1] = {vj};
  auto w =
      stats::Workload::FromParts(buckets, {{1.0}, {1.0}}, 5.0, {200.0, 200.0});
  ASSERT_TRUE(w.ok());
  auto model = BoundJoinCostModel::Create(&*w, MeasureKind::kCost2);
  ASSERT_TRUE(model.ok());
  ExecutionContext ctx(&*w);
  // term0 = 5 + 0.5*40 = 25; transfer1 = 100*40/200 = 20;
  // term1 = 5 + 0.2*20 = 9; total 34.
  EXPECT_DOUBLE_EQ((*model)->EvaluateConcrete({0, 0}, ctx), -34.0);
}

TEST(BoundJoinCostModelTest, FailureDividesTermsByOneMinusF) {
  std::vector<std::vector<stats::SourceStats>> buckets(1);
  stats::SourceStats s;
  s.cardinality = 10;
  s.transmission_cost = 1.0;
  s.failure_prob = 0.5;
  s.regions.bits = 1;
  buckets[0] = {s};
  auto w = stats::Workload::FromParts(buckets, {{1.0}}, 5.0, {100.0});
  ASSERT_TRUE(w.ok());
  auto model = BoundJoinCostModel::Create(&*w, MeasureKind::kFailureNoCache);
  ASSERT_TRUE(model.ok());
  ExecutionContext ctx(&*w);
  // (5 + 10) / (1 - 0.5) = 30.
  EXPECT_DOUBLE_EQ((*model)->EvaluateConcrete({0}, ctx), -30.0);
}

TEST(BoundJoinCostModelTest, CachingZeroesExecutedOperations) {
  stats::Workload w = MakeWorkload(5);
  auto model = BoundJoinCostModel::Create(&w, MeasureKind::kFailureCache);
  ASSERT_TRUE(model.ok());
  ExecutionContext ctx(&w);
  const double before = (*model)->EvaluateConcrete({1, 2, 3}, ctx);
  ctx.MarkExecuted({1, 2, 3});
  // Everything cached: the whole plan is free now.
  EXPECT_DOUBLE_EQ((*model)->EvaluateConcrete({1, 2, 3}, ctx), 0.0);
  // A plan sharing only bucket 0's op gets cheaper but not free.
  const double partial_before = before;
  (void)partial_before;
  ctx.Reset();
  const double other_before = (*model)->EvaluateConcrete({1, 0, 0}, ctx);
  ctx.MarkExecuted({1, 2, 3});
  const double other_after = (*model)->EvaluateConcrete({1, 0, 0}, ctx);
  EXPECT_GT(other_after, other_before);  // cheaper = higher utility
  EXPECT_LT(other_after, 0.0);
}

TEST(BoundJoinCostModelTest, CachingBreaksDiminishingReturnsFlag) {
  stats::Workload w = MakeWorkload(6);
  auto model = BoundJoinCostModel::Create(&w, MeasureKind::kFailureCache);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE((*model)->diminishing_returns());
  EXPECT_FALSE((*model)->Independent({0, 1, 2}, {0, 3, 4}));  // share (0,0)
  EXPECT_TRUE((*model)->Independent({0, 1, 2}, {1, 2, 3}));
}

TEST(BoundJoinCostModelTest, UniformAlphaValidation) {
  stats::Workload varying = MakeWorkload(7, 0.05, 1.0);
  EXPECT_EQ(BoundJoinCostModel::Create(&varying,
                                       MeasureKind::kCost2UniformAlpha)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  stats::Workload uniform = MakeWorkload(7, 0.3, 0.3);
  auto model =
      BoundJoinCostModel::Create(&uniform, MeasureKind::kCost2UniformAlpha);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE((*model)->fully_monotonic());
  // Smaller cardinality scores higher.
  EXPECT_GT((*model)->MonotoneScore(0, 0) + uniform.source(0, 0).cardinality,
            -1e-9);
}

TEST(MonetaryModelTest, DividesByOutputTuples) {
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  stats::SourceStats vi;
  vi.cardinality = 40;
  vi.fee = 0.5;
  vi.regions.bits = 1;
  stats::SourceStats vj;
  vj.cardinality = 100;
  vj.fee = 0.2;
  vj.regions.bits = 1;
  buckets[0] = {vi};
  buckets[1] = {vj};
  auto w =
      stats::Workload::FromParts(buckets, {{1.0}, {1.0}}, 5.0, {200.0, 200.0});
  ASSERT_TRUE(w.ok());
  auto model = BoundJoinCostModel::Create(&*w, MeasureKind::kMonetary);
  ASSERT_TRUE(model.ok());
  ExecutionContext ctx(&*w);
  // cost = (5+0.5*40) + (5+0.2*20) = 34; output tuples = 20; 34/20 = 1.7.
  EXPECT_DOUBLE_EQ((*model)->EvaluateConcrete({0, 0}, ctx), -1.7);
}

TEST(ModelNamesTest, DescribeOptions) {
  stats::Workload w = MakeWorkload(8);
  AdditiveCostModel additive(&w);
  EXPECT_EQ(additive.name(), "additive-cost");
  const std::pair<MeasureKind, const char*> expected[] = {
      {MeasureKind::kCost2UniformAlpha, "bound-join-cost"},
      {MeasureKind::kCost2, "bound-join-cost"},
      {MeasureKind::kFailureNoCache, "bound-join-cost+failure"},
      {MeasureKind::kFailureCache, "bound-join-cost+failure+cache"},
      {MeasureKind::kMonetary, "monetary-per-tuple"},
      {MeasureKind::kMonetaryCache, "monetary-per-tuple+cache"},
  };
  stats::Workload uniform = MakeWorkload(8, 0.3, 0.3);
  for (const auto& [kind, name] : expected) {
    auto model = BoundJoinCostModel::Create(&uniform, kind);
    ASSERT_TRUE(model.ok()) << MeasureKindName(kind);
    EXPECT_EQ((*model)->name(), name);
  }
}

TEST(BoundJoinCostModelTest, RejectsKindsOutsideTheFamily) {
  stats::Workload w = MakeWorkload(8);
  for (MeasureKind kind : {MeasureKind::kAdditive, MeasureKind::kCoverage}) {
    EXPECT_EQ(BoundJoinCostModel::Create(&w, kind).status().code(),
              StatusCode::kInvalidArgument)
        << MeasureKindName(kind);
  }
}

/// The contract abstract evaluation must satisfy (Section 5.1): the interval
/// of an abstract plan contains the exact utility of every concrete plan it
/// represents, whatever has been executed.
class CostEnclosureTest : public ::testing::TestWithParam<int> {};

TEST_P(CostEnclosureTest, AbstractIntervalsEncloseAllMembers) {
  stats::Workload w = MakeWorkload(GetParam());
  std::vector<std::unique_ptr<UtilityModel>> models;
  models.push_back(std::make_unique<AdditiveCostModel>(&w));
  // kCost2UniformAlpha evaluates as kCost2 and needs a uniform-α workload.
  for (MeasureKind kind :
       {MeasureKind::kCost2, MeasureKind::kFailureNoCache,
        MeasureKind::kFailureCache, MeasureKind::kMonetary,
        MeasureKind::kMonetaryCache}) {
    auto model = BoundJoinCostModel::Create(&w, kind);
    ASSERT_TRUE(model.ok()) << MeasureKindName(kind);
    models.push_back(std::move(*model));
  }

  const PlanSpace space = PlanSpace::FullSpace(w);
  const AbstractionForest forest = AbstractionForest::Build(
      w, space, AbstractionHeuristic::kByCardinality);
  std::mt19937_64 rng(GetParam() * 1000 + 7);

  for (const auto& model : models) {
    ExecutionContext ctx(&w);
    for (int round = 0; round < 4; ++round) {
      // Random abstract plan: walk down each tree a random depth.
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
          model->Evaluate(NodeSpan(summaries.data(), summaries.size()), ctx);
      // Every concrete member combination must fall inside.
      std::vector<size_t> cursor(plan.nodes.size(), 0);
      while (true) {
        ConcretePlan concrete(plan.nodes.size());
        for (size_t b = 0; b < plan.nodes.size(); ++b) {
          concrete[b] = forest.summary(plan.nodes[b]).members[cursor[b]];
        }
        const double u = model->EvaluateConcrete(concrete, ctx);
        EXPECT_GE(u, interval.lo() - 1e-9)
            << model->name() << " round " << round;
        EXPECT_LE(u, interval.hi() + 1e-9)
            << model->name() << " round " << round;
        size_t b = 0;
        for (; b < plan.nodes.size(); ++b) {
          if (++cursor[b] < forest.summary(plan.nodes[b]).members.size()) {
            break;
          }
          cursor[b] = 0;
        }
        if (b == plan.nodes.size()) break;
      }
      // Execute a random plan and re-check conditioning next round.
      ConcretePlan executed(w.num_buckets());
      for (int b = 0; b < w.num_buckets(); ++b) {
        executed[b] = static_cast<int>(rng() % w.bucket_size(b));
      }
      ctx.MarkExecuted(executed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostEnclosureTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace planorder::utility
