#include "core/orderer_factory.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/adaptive_orderer.h"
#include "reference/orderer_factory.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Measure;
using test::MustMakeMeasure;

/// Uniform transmission costs, so every measure — cost measure (2) with
/// uniform alpha included — instantiates over it.
stats::Workload UniformAlphaWorkload(int query_length) {
  stats::WorkloadOptions options;
  options.query_length = query_length;
  options.bucket_size = 3;
  options.regions_per_bucket = 8;
  options.alpha_min = 0.3;
  options.alpha_max = 0.3;
  options.seed = 5;
  auto workload = stats::Workload::Generate(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(*workload);
}

TEST(OrdererFactoryTest, AutoFollowsSection6ForEveryMeasure) {
  struct Case {
    Measure measure;
    OrdererKind expected;
  };
  const Case cases[] = {
      {Measure::kAdditive, OrdererKind::kGreedy},  // fully monotonic
      {Measure::kCost2UniformAlpha, OrdererKind::kGreedy},
      // Every other measure, diminishing returns or not: persistent iDrips.
      {Measure::kCost2, OrdererKind::kIDrips},  // diminishing returns
      {Measure::kFailureNoCache, OrdererKind::kIDrips},
      {Measure::kFailureCache, OrdererKind::kIDrips},  // caching: neither
      {Measure::kMonetary, OrdererKind::kIDrips},
      {Measure::kMonetaryCache, OrdererKind::kIDrips},
      {Measure::kCoverage, OrdererKind::kIDrips},
  };
  const stats::Workload w = UniformAlphaWorkload(3);
  for (const Case& c : cases) {
    SCOPED_TRACE(test::MeasureName(c.measure));
    auto model = MustMakeMeasure(c.measure, &w);
    auto orderer =
        MakeOrderer({}, &w, model.get(), {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << orderer.status();
    EXPECT_EQ((*orderer)->name(), OrdererKindName(c.expected));
    EXPECT_TRUE((*orderer)->Next().ok());
  }
}

TEST(OrdererFactoryTest, ExplicitKindOverridesAuto) {
  const stats::Workload w = UniformAlphaWorkload(3);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);  // auto: iDrips
  for (OrdererKind kind : {OrdererKind::kPi, OrdererKind::kStreamer}) {
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << orderer.status();
    EXPECT_EQ((*orderer)->name(), OrdererKindName(kind));
  }
}

TEST(OrdererFactoryTest, ProductionFactoryRejectsReferenceKinds) {
  const stats::Workload w = UniformAlphaWorkload(3);
  auto model = MustMakeMeasure(Measure::kAdditive, &w);  // every kind applies
  for (OrdererKind kind : {OrdererKind::kIDripsRebuild, OrdererKind::kStreamer,
                           OrdererKind::kPi, OrdererKind::kNaive}) {
    SCOPED_TRACE(OrdererKindName(kind));
    EXPECT_TRUE(Applicable(kind, *model));
    auto orderer =
        MakeOrderer({kind}, &w, model.get(), {PlanSpace::FullSpace(w)});
    EXPECT_EQ(orderer.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(OrdererFactoryTest, ReferenceFactoryBuildsEveryKind) {
  // name() is the algorithm the orderer runs: kAuto resolves to Greedy
  // under the additive measure, and the rebuild mode is still iDrips.
  const std::pair<OrdererKind, std::string> cases[] = {
      {OrdererKind::kAuto, "greedy"},
      {OrdererKind::kGreedy, "greedy"},
      {OrdererKind::kIDrips, "idrips"},
      {OrdererKind::kIDripsRebuild, "idrips"},
      {OrdererKind::kStreamer, "streamer"},
      {OrdererKind::kPi, "pi"},
      {OrdererKind::kNaive, "naive"},
  };
  const stats::Workload w = UniformAlphaWorkload(3);
  std::vector<std::vector<OrderedPlan>> orders;
  for (const auto& [kind, name] : cases) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto model = MustMakeMeasure(Measure::kAdditive, &w);
    auto orderer = MakeReferenceOrderer({kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << orderer.status();
    EXPECT_EQ((*orderer)->name(), name);
    orders.push_back(test::Drain(**orderer));
  }
  // All seven are exact: the same utility sequence over the 27 plans.
  for (const std::vector<OrderedPlan>& order : orders) {
    ASSERT_EQ(order.size(), 27u);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_NEAR(order[i].utility, orders[0][i].utility, 1e-9);
    }
  }
}

TEST(OrdererFactoryTest, NamesRoundTrip) {
  // The names the sim corpus's scenario text, the CLI's .domain files and
  // the bench series spell.
  const std::pair<OrdererKind, const char*> names[] = {
      {OrdererKind::kAuto, "auto"},
      {OrdererKind::kGreedy, "greedy"},
      {OrdererKind::kIDrips, "idrips"},
      {OrdererKind::kIDripsRebuild, "idrips-rebuild"},
      {OrdererKind::kStreamer, "streamer"},
      {OrdererKind::kPi, "pi"},
      {OrdererKind::kNaive, "naive"},
  };
  for (const auto& [kind, name] : names) {
    EXPECT_EQ(OrdererKindName(kind), name);
    auto parsed = OrdererKindFromName(name);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(OrdererKindFromName("drips").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OrdererFactoryTest, InapplicableKindsFailPrecondition) {
  const stats::Workload w = UniformAlphaWorkload(3);
  struct Case {
    OrdererKind kind;
    Measure measure;
  };
  const Case cases[] = {
      {OrdererKind::kGreedy, Measure::kCoverage},  // not fully monotonic
      {OrdererKind::kStreamer, Measure::kFailureCache},  // no dim. returns
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(OrdererKindName(c.kind));
    auto model = MustMakeMeasure(c.measure, &w);
    EXPECT_FALSE(Applicable(c.kind, *model));
    auto orderer = MakeReferenceOrderer({c.kind}, &w, model.get(),
                                        {PlanSpace::FullSpace(w)});
    EXPECT_EQ(orderer.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(OrdererFactoryTest, AdaptiveInnerMustBeProduction) {
  // AdaptiveOrderer builds its inner orderer through MakeOrderer, so a
  // reference kind fails Create with the factory's status.
  const stats::Workload w = UniformAlphaWorkload(3);
  std::vector<std::vector<std::string>> names(3);
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < w.bucket_size(b); ++i) {
      names[b].push_back("s" + std::to_string(b) + "_" + std::to_string(i));
    }
  }
  for (OrdererKind kind : {OrdererKind::kIDripsRebuild, OrdererKind::kStreamer,
                           OrdererKind::kPi, OrdererKind::kNaive}) {
    SCOPED_TRACE(OrdererKindName(kind));
    auto model = MustMakeMeasure(Measure::kAdditive, &w);
    const Status factory =
        MakeOrderer({kind}, &w, model.get(), {PlanSpace::FullSpace(w)})
            .status();
    EXPECT_EQ(factory.code(), StatusCode::kInvalidArgument);
    adaptive::AdaptiveOptions options;
    options.inner = kind;
    auto orderer =
        adaptive::AdaptiveOrderer::Create(&w, names, nullptr, options);
    EXPECT_EQ(orderer.status(), factory);
  }
  adaptive::AdaptiveOptions options;
  options.inner = OrdererKind::kAuto;
  EXPECT_TRUE(
      adaptive::AdaptiveOrderer::Create(&w, names, nullptr, options).ok());
}

TEST(OrdererFactoryTest, TooManySubgoalsIsInvalidArgument) {
  // One bucket per subgoal, one coverage-bitmask dimension per bucket:
  // beyond BitmaskUniverse::kMaxDims the orderers refuse instead of
  // aborting in the execution context.
  const stats::Workload w =
      UniformAlphaWorkload(stats::BitmaskUniverse::kMaxDims + 1);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      StreamerOrderer::Create(&w, model.get(), {PlanSpace::FullSpace(w)});
  EXPECT_EQ(streamer.status().code(), StatusCode::kInvalidArgument);
  auto automatic = MakeOrderer({}, &w, model.get(), {PlanSpace::FullSpace(w)});
  EXPECT_EQ(automatic.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace planorder::core
