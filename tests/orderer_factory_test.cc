#include "core/orderer_factory.h"

#include <gtest/gtest.h>

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
    auto orderer =
        MakeOrderer({kind}, &w, model.get(), {PlanSpace::FullSpace(w)});
    ASSERT_TRUE(orderer.ok()) << orderer.status();
    EXPECT_EQ((*orderer)->name(), OrdererKindName(kind));
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
    auto orderer =
        MakeOrderer({c.kind}, &w, model.get(), {PlanSpace::FullSpace(w)});
    EXPECT_EQ(orderer.status().code(), StatusCode::kFailedPrecondition);
  }
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
