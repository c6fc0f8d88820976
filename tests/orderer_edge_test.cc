/// Edge-case behavior shared by all ordering algorithms: empty inputs,
/// degenerate spaces, heavy ties, exhaustion, and the discard protocol.

#include <functional>

#include <gtest/gtest.h>

#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

using MakeOrderer = std::function<StatusOr<std::unique_ptr<Orderer>>(
    const stats::Workload*, utility::UtilityModel*, std::vector<PlanSpace>)>;

std::vector<std::pair<std::string, MakeOrderer>> AllOrderers() {
  return {
      {"pi",
       [](const stats::Workload* w, utility::UtilityModel* m,
          std::vector<PlanSpace> s) -> StatusOr<std::unique_ptr<Orderer>> {
         auto o = PiOrderer::Create(w, m, std::move(s));
         if (!o.ok()) return o.status();
         return std::unique_ptr<Orderer>(std::move(*o));
       }},
      {"idrips",
       [](const stats::Workload* w, utility::UtilityModel* m,
          std::vector<PlanSpace> s) -> StatusOr<std::unique_ptr<Orderer>> {
         auto o = IDripsOrderer::Create(w, m, std::move(s));
         if (!o.ok()) return o.status();
         return std::unique_ptr<Orderer>(std::move(*o));
       }},
      {"streamer",
       [](const stats::Workload* w, utility::UtilityModel* m,
          std::vector<PlanSpace> s) -> StatusOr<std::unique_ptr<Orderer>> {
         auto o = StreamerOrderer::Create(w, m, std::move(s));
         if (!o.ok()) return o.status();
         return std::unique_ptr<Orderer>(std::move(*o));
       }},
  };
}

TEST(OrdererEdgeTest, NoSpacesMeansImmediateExhaustion) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 1);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {});
    ASSERT_TRUE(orderer.ok()) << name;
    auto next = (*orderer)->Next();
    EXPECT_FALSE(next.ok()) << name;
    EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << name;
  }
}

TEST(OrdererEdgeTest, EmptyBucketSpacesAreSkipped) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 2);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace empty;
  empty.buckets = {{0, 1}, {}};
  PlanSpace small;
  small.buckets = {{0}, {2}};
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {empty, small});
    ASSERT_TRUE(orderer.ok()) << name;
    const auto plans = Drain(**orderer);
    ASSERT_EQ(plans.size(), 1u) << name;
    EXPECT_EQ(plans[0].plan, (utility::ConcretePlan{0, 2})) << name;
  }
}

TEST(OrdererEdgeTest, UnknownSourceIdRejected) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 3);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0, 7}, {0}};
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {bad});
    EXPECT_FALSE(orderer.ok()) << name;
    EXPECT_EQ(orderer.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(OrdererEdgeTest, WrongBucketCountRejected) {
  stats::Workload w = MakeWorkload(3, 3, 0.3, 4);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0}, {0}};  // workload has 3 buckets
  for (auto& [name, make] : AllOrderers()) {
    EXPECT_FALSE(make(&w, model.get(), {bad}).ok()) << name;
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
    for (auto& [name, make] : AllOrderers()) {
      auto orderer = make(&*w, model.get(), {PlanSpace::FullSpace(*w)});
      ASSERT_TRUE(orderer.ok()) << name;
      const auto plans = Drain(**orderer);
      ASSERT_EQ(plans.size(), 16u)
          << name << "/" << test::MeasureName(measure);
      std::set<utility::ConcretePlan> unique;
      for (const auto& p : plans) unique.insert(p.plan);
      EXPECT_EQ(unique.size(), 16u)
          << name << "/" << test::MeasureName(measure);
    }
  }
}

TEST(OrdererEdgeTest, ExhaustionIsSticky) {
  stats::Workload w = MakeWorkload(2, 2, 0.3, 5);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << name;
    EXPECT_EQ(Drain(**orderer).size(), 4u) << name;
    for (int i = 0; i < 3; ++i) {
      auto next = (*orderer)->Next();
      EXPECT_FALSE(next.ok()) << name;
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << name;
    }
  }
}

TEST(OrdererEdgeTest, DiscardKeepsContextClean) {
  stats::Workload w = MakeWorkload(2, 3, 0.4, 6);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << name;
    // Discard before any Next: harmless no-op.
    (*orderer)->ReportDiscarded();
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    (*orderer)->ReportDiscarded();
    (*orderer)->ReportDiscarded();  // double discard: still a no-op
    EXPECT_EQ((*orderer)->context().epoch(), 0) << name;
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    // Second plan was implicitly executed when the third was requested.
    EXPECT_EQ((*orderer)->context().epoch(), 1) << name;
  }
}

TEST(OrdererEdgeTest, PlainIntervalModeStaysExact) {
  // probe_lower_bounds=false reverts to the paper's plain interval
  // semantics (min-over-members lower bounds, any-member link witnesses).
  // Slower, but the ordering must remain exact.
  stats::Workload w = MakeWorkload(3, 5, 0.4, 8);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  for (Measure measure : {Measure::kCoverage, Measure::kMonetary}) {
    auto ref_model = MustMakeMeasure(measure, &w);
    auto reference = PiOrderer::Create(&w, ref_model.get(), spaces,
                                       /*use_independence=*/false);
    ASSERT_TRUE(reference.ok());
    const auto expected = Drain(**reference);

    auto model = MustMakeMeasure(measure, &w);
    auto streamer = StreamerOrderer::Create(
        &w, model.get(), spaces, AbstractionHeuristic::kByCardinality,
        /*probe_lower_bounds=*/false);
    ASSERT_TRUE(streamer.ok());
    const auto via_streamer = Drain(**streamer);
    ASSERT_EQ(via_streamer.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(via_streamer[i].utility, expected[i].utility, 1e-9)
          << test::MeasureName(measure) << " streamer at " << i;
    }

    auto model2 = MustMakeMeasure(measure, &w);
    auto idrips = IDripsOrderer::Create(&w, model2.get(), spaces);
    ASSERT_TRUE(idrips.ok());
    const auto via_idrips = Drain(**idrips);
    ASSERT_EQ(via_idrips.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(via_idrips[i].utility, expected[i].utility, 1e-9)
          << test::MeasureName(measure) << " idrips at " << i;
    }
  }
}

TEST(OrdererEdgeTest, SingleBucketWorkloadOrdersSources) {
  stats::Workload w = MakeWorkload(1, 6, 0.3, 7);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  for (auto& [name, make] : AllOrderers()) {
    auto orderer = make(&w, model.get(), {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << name;
    const auto plans = Drain(**orderer);
    ASSERT_EQ(plans.size(), 6u) << name;
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_LE(plans[i].utility, plans[i - 1].utility + 1e-12) << name;
    }
  }
}

}  // namespace
}  // namespace planorder::core
