/// The central correctness property of the paper (Sections 4-5): Greedy,
/// iDrips, Streamer, and PI all compute the *exact* plan ordering of
/// Definition 2.1. This suite cross-checks them against the naive
/// recompute-everything brute force over randomized workloads, every
/// Section 6 utility measure, and every abstraction heuristic.
///
/// Orderings are compared by utility sequence (ties among equal-utility
/// plans may legitimately break differently) and by plan multiset.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "test_util.h"

namespace planorder {
namespace {

using core::AbstractionHeuristic;
using core::OrderedPlan;
using core::OrdererKind;
using core::PlanSpace;
using test::Drain;
using test::MustMakeMeasure;
using test::MakeWorkload;
using test::Measure;
using test::MeasureName;

void ExpectSameUtilitySequence(const std::vector<OrderedPlan>& a,
                               const std::vector<OrderedPlan>& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].utility, b[i].utility, 1e-9)
        << label << " diverges at position " << i;
  }
}

void ExpectSamePlanSet(const std::vector<OrderedPlan>& a,
                       const std::vector<OrderedPlan>& b,
                       const std::string& label) {
  std::multiset<utility::ConcretePlan> sa, sb;
  for (const OrderedPlan& p : a) sa.insert(p.plan);
  for (const OrderedPlan& p : b) sb.insert(p.plan);
  EXPECT_EQ(sa, sb) << label;
}

struct AgreementCase {
  Measure measure;
  int query_length;
  int bucket_size;
  double overlap;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<AgreementCase>& info) {
  const AgreementCase& c = info.param;
  std::string name = MeasureName(c.measure) + "_m" +
                     std::to_string(c.query_length) + "_s" +
                     std::to_string(c.bucket_size) + "_seed" +
                     std::to_string(c.seed);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class OrdererAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(OrdererAgreementTest, AllAlgorithmsProduceTheExactOrdering) {
  const AgreementCase& c = GetParam();
  stats::Workload w =
      MakeWorkload(c.query_length, c.bucket_size, c.overlap, c.seed);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  const int total = static_cast<int>(spaces[0].NumPlans());

  // Reference: naive brute force, full ordering.
  auto ref_model = MustMakeMeasure(c.measure, &w);
  auto naive = core::MakeOrderer({OrdererKind::kNaive}, &w, ref_model.get(),
                                 spaces);
  ASSERT_TRUE(naive.ok());
  const std::vector<OrderedPlan> reference = Drain(**naive);
  ASSERT_EQ(static_cast<int>(reference.size()), total);
  // Utilities are non-increasing only under diminishing returns; in all
  // cases each emission must have been the argmax at its time, which the
  // cross-algorithm agreement below certifies.

  // PI with independence-based recomputation.
  {
    auto model = MustMakeMeasure(c.measure, &w);
    auto pi = core::MakeOrderer({OrdererKind::kPi}, &w, model.get(), spaces);
    ASSERT_TRUE(pi.ok());
    const auto plans = Drain(**pi);
    ExpectSameUtilitySequence(reference, plans, "pi vs naive");
    ExpectSamePlanSet(reference, plans, "pi vs naive");
  }

  // iDrips, every heuristic.
  for (AbstractionHeuristic h :
       {AbstractionHeuristic::kByCardinality,
        AbstractionHeuristic::kByMaskSimilarity, AbstractionHeuristic::kRandom}) {
    auto model = MustMakeMeasure(c.measure, &w);
    auto idrips =
        core::MakeOrderer({OrdererKind::kIDrips, h}, &w, model.get(), spaces);
    ASSERT_TRUE(idrips.ok());
    const auto plans = Drain(**idrips);
    ExpectSameUtilitySequence(reference, plans, "idrips vs naive");
    ExpectSamePlanSet(reference, plans, "idrips vs naive");
  }

  // Streamer where applicable (requires diminishing returns).
  {
    auto model = MustMakeMeasure(c.measure, &w);
    auto streamer =
        core::MakeOrderer({OrdererKind::kStreamer}, &w, model.get(), spaces);
    if (model->diminishing_returns()) {
      ASSERT_TRUE(streamer.ok()) << streamer.status();
      const auto plans = Drain(**streamer);
      ExpectSameUtilitySequence(reference, plans, "streamer vs naive");
      ExpectSamePlanSet(reference, plans, "streamer vs naive");
    } else {
      EXPECT_FALSE(streamer.ok());
      EXPECT_EQ(streamer.status().code(), StatusCode::kFailedPrecondition);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrdererAgreementTest,
    ::testing::Values(
        // Coverage across shapes, overlaps, seeds.
        AgreementCase{Measure::kCoverage, 3, 4, 0.3, 101},
        AgreementCase{Measure::kCoverage, 3, 5, 0.3, 102},
        AgreementCase{Measure::kCoverage, 2, 7, 0.5, 103},
        AgreementCase{Measure::kCoverage, 4, 3, 0.2, 104},
        AgreementCase{Measure::kCoverage, 1, 9, 0.4, 105},
        AgreementCase{Measure::kCoverage, 3, 4, 0.8, 106},
        // Cost measure (2) with varying alpha.
        AgreementCase{Measure::kCost2, 3, 5, 0.3, 111},
        AgreementCase{Measure::kCost2, 2, 8, 0.3, 112},
        // Cost with failure, no caching (full independence).
        AgreementCase{Measure::kFailureNoCache, 3, 5, 0.3, 121},
        AgreementCase{Measure::kFailureNoCache, 4, 3, 0.3, 122},
        // Cost with failure + caching (partial dependence, no DR).
        AgreementCase{Measure::kFailureCache, 3, 4, 0.3, 131},
        AgreementCase{Measure::kFailureCache, 2, 6, 0.3, 132},
        AgreementCase{Measure::kFailureCache, 3, 5, 0.3, 133},
        // Monetary per tuple, both caching modes.
        AgreementCase{Measure::kMonetary, 3, 4, 0.3, 141},
        AgreementCase{Measure::kMonetary, 2, 7, 0.3, 142},
        AgreementCase{Measure::kMonetaryCache, 3, 4, 0.3, 151},
        AgreementCase{Measure::kMonetaryCache, 2, 5, 0.3, 152}),
    CaseName);

TEST(OrdererAgreementTieTest, DefaultMatchesStreamerUpToTieOrder) {
  // The production default (kAuto: persistent iDrips for coverage) and the
  // paper's Streamer may break utility ties differently, and nothing else.
  // Their utility sequences agree to rounding. Wherever both have executed
  // the same plan set so far (a tie group permuted still counts), their
  // next plans tie: each has the emitted utility under that executed set.
  // A tie broken the other way can keep the executed sets apart for good
  // (the plan passed over loses coverage), so past that point only the
  // utilities are compared.
  constexpr double kTie = 1e-12;
  constexpr int kPlans = 200;
  for (int length : {2, 3, 4}) {
    // Length 4 stops at size 8: Streamer needs seconds at 12^4 plans.
    for (int size : {4, 8, 12}) {
      if (length == 4 && size == 12) continue;
      for (double overlap : {0.2, 0.4, 0.8}) {
        for (uint64_t seed : {1, 2}) {
          const std::string label =
              "m" + std::to_string(length) + " s" + std::to_string(size) +
              " overlap " + std::to_string(overlap) + " seed " +
              std::to_string(seed);
          stats::Workload w = MakeWorkload(length, size, overlap, seed);
          const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
          auto default_model = MustMakeMeasure(Measure::kCoverage, &w);
          auto streamer_model = MustMakeMeasure(Measure::kCoverage, &w);
          auto by_default =
              core::MakeOrderer({}, &w, default_model.get(), spaces);
          auto streamer = core::MakeOrderer({OrdererKind::kStreamer}, &w,
                                            streamer_model.get(), spaces);
          ASSERT_TRUE(by_default.ok()) << by_default.status();
          ASSERT_TRUE(streamer.ok()) << streamer.status();
          const auto a = Drain(**by_default, kPlans);
          const auto b = Drain(**streamer, kPlans);
          ASSERT_EQ(a.size(), b.size()) << label;

          auto oracle = MustMakeMeasure(Measure::kCoverage, &w);
          std::set<utility::ConcretePlan> executed_a, executed_b;
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(a[i].utility, b[i].utility, kTie)
                << label << " at " << i;
            if (a[i].plan != b[i].plan && executed_a == executed_b) {
              utility::ExecutionContext executed(&w);
              for (const auto& plan : executed_a) executed.MarkExecuted(plan);
              EXPECT_NEAR(oracle->EvaluateConcrete(a[i].plan, executed),
                          a[i].utility, kTie)
                  << label << " default's plan at " << i;
              EXPECT_NEAR(oracle->EvaluateConcrete(b[i].plan, executed),
                          a[i].utility, kTie)
                  << label << " streamer's plan at " << i;
            }
            executed_a.insert(a[i].plan);
            executed_b.insert(b[i].plan);
          }
        }
      }
    }
  }
}

TEST(OrdererAgreementEdgeTest, SinglePlanWorkload) {
  stats::Workload w = MakeWorkload(2, 1, 0.3, 7);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      core::MakeOrderer({OrdererKind::kStreamer}, &w, model.get(), spaces);
  ASSERT_TRUE(streamer.ok());
  const auto plans = Drain(**streamer);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].plan, (utility::ConcretePlan{0, 0}));
}

TEST(OrdererAgreementEdgeTest, MultipleSpacesAgree) {
  // Hand the orderers a pre-split space set: ordering must match the naive
  // ordering over the union.
  stats::Workload w = MakeWorkload(3, 4, 0.3, 8);
  PlanSpace full = PlanSpace::FullSpace(w);
  std::vector<PlanSpace> spaces = core::SplitAround(full, {0, 0, 0});
  ASSERT_GT(spaces.size(), 1u);

  auto ref_model = MustMakeMeasure(Measure::kCoverage, &w);
  auto naive = core::MakeOrderer({OrdererKind::kNaive}, &w, ref_model.get(),
                                 spaces);
  ASSERT_TRUE(naive.ok());
  const auto reference = Drain(**naive);
  EXPECT_EQ(reference.size(), full.NumPlans() - 1);

  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto streamer =
      core::MakeOrderer({OrdererKind::kStreamer}, &w, model.get(), spaces);
  ASSERT_TRUE(streamer.ok());
  const auto plans = Drain(**streamer);
  ExpectSameUtilitySequence(reference, plans, "streamer multi-space");

  auto model2 = MustMakeMeasure(Measure::kCoverage, &w);
  auto idrips =
      core::MakeOrderer({OrdererKind::kIDrips}, &w, model2.get(), spaces);
  ASSERT_TRUE(idrips.ok());
  ExpectSameUtilitySequence(reference, Drain(**idrips), "idrips multi-space");
}

TEST(OrdererDiscardTest, DiscardedPlansDoNotConditionUtilities) {
  // Coverage: if every emitted plan is discarded, each next emission is
  // computed as if nothing ran, so the utilities match the unconditioned
  // coverage ranking (with already-emitted plans removed).
  stats::Workload w = MakeWorkload(3, 4, 0.3, 9);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  auto model = MustMakeMeasure(Measure::kCoverage, &w);

  // Unconditioned ranking: coverage of every plan against an empty context.
  utility::ExecutionContext fresh(&w);
  std::vector<double> unconditioned;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int cc = 0; cc < 4; ++cc) {
        unconditioned.push_back(
            model->EvaluateConcrete({a, b, cc}, fresh));
      }
    }
  }
  std::sort(unconditioned.rbegin(), unconditioned.rend());

  for (OrdererKind kind :
       {OrdererKind::kPi, OrdererKind::kStreamer, OrdererKind::kIDrips}) {
    auto made = core::MakeOrderer({kind}, &w, model.get(), spaces);
    ASSERT_TRUE(made.ok()) << made.status();
    std::unique_ptr<core::Orderer> orderer = std::move(*made);
    std::vector<double> emitted;
    while (true) {
      auto next = orderer->Next();
      if (!next.ok()) break;
      emitted.push_back(next->utility);
      orderer->ReportDiscarded();
    }
    ASSERT_EQ(emitted.size(), unconditioned.size()) << orderer->name();
    for (size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_NEAR(emitted[i], unconditioned[i], 1e-9)
          << orderer->name() << " at " << i;
    }
  }
}

}  // namespace
}  // namespace planorder
