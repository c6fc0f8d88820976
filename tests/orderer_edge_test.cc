/// Edge-case behavior shared by all ordering algorithms: empty inputs,
/// degenerate spaces, heavy ties, exhaustion, and the discard protocol.

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "reference/orderer_factory.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

/// The orderers every edge case runs against, each built through the
/// factory.
constexpr OrdererKind kEdgeKinds[] = {OrdererKind::kPi, OrdererKind::kIDrips,
                                      OrdererKind::kStreamer};

TEST(OrdererEdgeTest, NoSpacesMeansImmediateExhaustion) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 1);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(), {});
    ASSERT_TRUE(orderer.ok());
    auto next = (*orderer)->Next();
    EXPECT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  }
}

TEST(OrdererEdgeTest, EmptyBucketSpacesAreSkipped) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 2);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace empty;
  empty.buckets = {{0, 1}, {}};
  PlanSpace small;
  small.buckets = {{0}, {2}};
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer =
        MakeReferenceOrderer({kind}, &w, model.get(), {empty, small});
    ASSERT_TRUE(orderer.ok());
    const auto plans = Drain(**orderer);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].plan, (utility::ConcretePlan{0, 2}));
  }
}

TEST(OrdererEdgeTest, UnknownSourceIdRejected) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 3);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0, 7}, {0}};
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(), {bad});
    EXPECT_FALSE(orderer.ok());
    EXPECT_EQ(orderer.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(OrdererEdgeTest, WrongBucketCountRejected) {
  stats::Workload w = MakeWorkload(3, 3, 0.3, 4);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0}, {0}};  // workload has 3 buckets
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    EXPECT_FALSE(MakeReferenceOrderer({kind}, &w, model.get(), {bad}).ok());
  }
}

TEST(OrdererEdgeTest, MassTiesStillEmitEveryPlanOnce) {
  // All sources identical: every plan ties. All orderers must still emit
  // each plan exactly once with identical utilities.
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < 4; ++i) {
      stats::SourceStats s;
      s.cardinality = 10;
      s.transmission_cost = 0.5;
      s.regions.bits = 0b0011;
      buckets[b].push_back(s);
    }
  }
  auto w = stats::Workload::FromParts(
      buckets, {std::vector<double>(4, 0.25), std::vector<double>(4, 0.25)},
      1.0, {100.0, 100.0});
  ASSERT_TRUE(w.ok());
  for (Measure measure : {Measure::kCoverage, Measure::kCost2}) {
    auto model = MustMakeMeasure(measure, &*w);
    for (OrdererKind kind : kEdgeKinds) {
      SCOPED_TRACE(OrdererKindName(kind));
      auto orderer = MakeReferenceOrderer({kind}, &*w, model.get(),
                                          {PlanSpace::FullSpace(*w)});
      ASSERT_TRUE(orderer.ok());
      const auto plans = Drain(**orderer);
      ASSERT_EQ(plans.size(), 16u) << test::MeasureName(measure);
      std::set<utility::ConcretePlan> unique;
      for (const auto& p : plans) unique.insert(p.plan);
      EXPECT_EQ(unique.size(), 16u) << test::MeasureName(measure);
    }
  }
}

TEST(OrdererEdgeTest, ExhaustionIsSticky) {
  stats::Workload w = MakeWorkload(2, 2, 0.3, 5);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok());
    EXPECT_EQ(Drain(**orderer).size(), 4u);
    for (int i = 0; i < 3; ++i) {
      auto next = (*orderer)->Next();
      EXPECT_FALSE(next.ok());
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
    }
  }
}

TEST(OrdererEdgeTest, DiscardKeepsContextClean) {
  stats::Workload w = MakeWorkload(2, 3, 0.4, 6);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok());
    // Discard before any Next: harmless no-op.
    (*orderer)->ReportDiscarded();
    ASSERT_TRUE((*orderer)->Next().ok());
    (*orderer)->ReportDiscarded();
    (*orderer)->ReportDiscarded();  // double discard: still a no-op
    EXPECT_EQ((*orderer)->context().epoch(), 0);
    ASSERT_TRUE((*orderer)->Next().ok());
    ASSERT_TRUE((*orderer)->Next().ok());
    // Second plan was implicitly executed when the third was requested.
    EXPECT_EQ((*orderer)->context().epoch(), 1);
  }
}

TEST(OrdererEdgeTest, PlainIntervalModeStaysExact) {
  // The paper's plain interval semantics (min-over-members lower bounds,
  // any-member link witnesses) — the only bounding rule — keeps the
  // abstraction orderers exact on a measure where group lower bounds are
  // loose (coverage) and on a cost measure (monetary).
  stats::Workload w = MakeWorkload(3, 5, 0.4, 8);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  for (Measure measure : {Measure::kCoverage, Measure::kMonetary}) {
    SCOPED_TRACE(test::MeasureName(measure));
    auto ref_model = MustMakeMeasure(measure, &w);
    auto reference = MakeReferenceOrderer({OrdererKind::kNaive}, &w,
                                          ref_model.get(), spaces);
    ASSERT_TRUE(reference.ok());
    const auto expected = Drain(**reference);
    for (OrdererKind kind : {OrdererKind::kStreamer, OrdererKind::kIDrips}) {
      SCOPED_TRACE(OrdererKindName(kind));
      auto model = MustMakeMeasure(measure, &w);
      auto orderer = MakeReferenceOrderer({kind}, &w, model.get(), spaces);
      ASSERT_TRUE(orderer.ok());
      const auto plans = Drain(**orderer);
      ASSERT_EQ(plans.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(plans[i].utility, expected[i].utility, 1e-9) << "at " << i;
      }
    }
  }
}

TEST(OrdererEdgeTest, SingleBucketWorkloadOrdersSources) {
  stats::Workload w = MakeWorkload(1, 6, 0.3, 7);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  for (OrdererKind kind : kEdgeKinds) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok());
    const auto plans = Drain(**orderer);
    ASSERT_EQ(plans.size(), 6u);
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_LE(plans[i].utility, plans[i - 1].utility + 1e-12);
    }
  }
}

}  // namespace
}  // namespace planorder::core
