#include "adaptive/adaptive_orderer.h"

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/idrips.h"
#include "core/plan_space.h"
#include "stats/workload.h"
#include "utility/measures.h"

namespace planorder::adaptive {
namespace {

stats::Workload MakeWorkload(uint64_t seed = 5) {
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 3;
  options.regions_per_bucket = 8;
  options.seed = seed;
  auto workload = stats::Workload::Generate(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(*workload);
}

std::vector<std::vector<std::string>> Names(const stats::Workload& workload) {
  std::vector<std::vector<std::string>> names(
      size_t(workload.num_buckets()));
  for (int b = 0; b < workload.num_buckets(); ++b) {
    for (int i = 0; i < workload.bucket_size(b); ++i) {
      names[size_t(b)].push_back("b" + std::to_string(b) + "_s" +
                                 std::to_string(i));
    }
  }
  return names;
}

StatusOr<std::vector<core::OrderedPlan>> DrainAll(core::Orderer& orderer) {
  std::vector<core::OrderedPlan> emissions;
  while (true) {
    StatusOr<core::OrderedPlan> next = orderer.Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    emissions.push_back(*next);
  }
  return emissions;
}

/// One observed call per source of `plan`, shipping `cardinality(b, i) *
/// factor(b, i)` rows.
template <typename CardFn>
void Observe(const std::vector<std::vector<std::string>>& names,
             const core::ConcretePlan& plan, CardFn card, ObservedStats& obs) {
  for (size_t b = 0; b < plan.size(); ++b) {
    runtime::SourceObservation o;
    o.rows = std::llround(card(int(b), plan[b]));
    o.attempts = 1;
    o.failures = 0;
    o.latency_micros = 1000;
    o.call_failed = false;
    obs.RecordFetch(names[b][size_t(plan[b])], o);
  }
  obs.FoldWindow();
}

TEST(PreloadExecutedTest, RejectedAfterTheFirstNext) {
  const stats::Workload workload = MakeWorkload();
  auto model = utility::MakeMeasure(utility::MeasureKind::kAdditive,
                                    &workload);
  ASSERT_TRUE(model.ok());
  auto orderer = core::IDripsOrderer::Create(
      &workload, model->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(orderer.ok()) << orderer.status();

  EXPECT_TRUE((*orderer)->PreloadExecuted({0, 0}).ok());
  ASSERT_TRUE((*orderer)->Next().ok());
  Status late = (*orderer)->PreloadExecuted({1, 1});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
}

TEST(PreloadExecutedTest, PreloadEqualsLiveExecutionConditioning) {
  // Orderer A: emit the best plan live, then drain. Orderer B: preload that
  // plan, then drain. B's stream must equal A's tail bit for bit — preload
  // conditions exactly like a live emission.
  const stats::Workload workload = MakeWorkload();
  auto model_a = utility::MakeMeasure(utility::MeasureKind::kCost2, &workload);
  ASSERT_TRUE(model_a.ok());
  auto a = core::IDripsOrderer::Create(
      &workload, model_a->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(a.ok());
  auto first = (*a)->Next();
  ASSERT_TRUE(first.ok());
  auto tail = DrainAll(**a);
  ASSERT_TRUE(tail.ok());

  auto model_b = utility::MakeMeasure(utility::MeasureKind::kCost2, &workload);
  ASSERT_TRUE(model_b.ok());
  auto b = core::IDripsOrderer::Create(
      &workload, model_b->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*b)->PreloadExecuted(first->plan).ok());

  // The preloaded plan is still in the space and will re-surface; callers
  // replacing an orderer mid-stream filter it — do the same here.
  std::vector<core::OrderedPlan> replay;
  while (true) {
    auto next = (*b)->Next();
    if (!next.ok()) break;
    if (next->plan == first->plan) {
      (*b)->ReportDiscarded();
      continue;
    }
    replay.push_back(*next);
  }
  ASSERT_EQ(replay.size(), tail->size());
  for (size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].plan, (*tail)[i].plan) << "step " << i;
    EXPECT_EQ(replay[i].utility, (*tail)[i].utility) << "step " << i;
  }
}

TEST(AdaptiveOrdererTest, NoObservationsMatchesPlainIDripsExactly) {
  const stats::Workload workload = MakeWorkload();
  auto model = utility::MakeMeasure(utility::MeasureKind::kAdditive,
                                    &workload);
  ASSERT_TRUE(model.ok());
  auto plain = core::IDripsOrderer::Create(
      &workload, model->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(plain.ok());
  auto want = DrainAll(**plain);
  ASSERT_TRUE(want.ok());

  AdaptiveOptions options;
  auto adaptive = AdaptiveOrderer::Create(&workload, Names(workload),
                                          /*observed=*/nullptr, options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  auto got = DrainAll(**adaptive);
  ASSERT_TRUE(got.ok());

  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].plan, (*want)[i].plan) << "step " << i;
    EXPECT_EQ((*got)[i].utility, (*want)[i].utility) << "step " << i;
  }
  EXPECT_EQ((*adaptive)->rebuilds(), 0);
}

TEST(AdaptiveOrdererTest, InBandObservationsNeverTriggerARebuild) {
  const stats::Workload workload = MakeWorkload();
  const auto names = Names(workload);
  ObservedStats observed;
  AdaptiveOptions options;
  options.drift.band = 1e6;  // everything is in band
  auto adaptive =
      AdaptiveOrderer::Create(&workload, names, &observed, options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();

  while (true) {
    auto next = (*adaptive)->Next();
    if (!next.ok()) break;
    Observe(
        names, next->plan,
        [&](int b, int i) { return workload.source(b, i).cardinality; },
        observed);
  }
  EXPECT_EQ((*adaptive)->rebuilds(), 0);
}

TEST(AdaptiveOrdererTest, OutOfBandDriftRebuildsAndStillEmitsEveryPlanOnce) {
  const stats::Workload workload = MakeWorkload();
  const auto names = Names(workload);
  ObservedStats observed;
  AdaptiveOptions options;
  options.drift.band = 2.0;
  auto adaptive =
      AdaptiveOrderer::Create(&workload, names, &observed, options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();

  std::set<core::ConcretePlan> seen;
  size_t emissions = 0;
  while (true) {
    auto next = (*adaptive)->Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
      break;
    }
    ++emissions;
    EXPECT_TRUE(seen.insert(next->plan).second)
        << "plan re-emitted after a rebuild";
    // Every source observed at 10x its estimated cardinality: far outside
    // the band from the very first fold.
    Observe(
        names, next->plan,
        [&](int b, int i) { return workload.source(b, i).cardinality * 10.0; },
        observed);
  }
  const core::PlanSpace full = core::PlanSpace::FullSpace(workload);
  EXPECT_EQ(emissions, size_t(full.NumPlans()));
  EXPECT_GE((*adaptive)->rebuilds(), 1);
  // The blended statistics the last generation ranked by reflect the drift.
  EXPECT_NE((*adaptive)->current_workload().source(0, 0).cardinality,
            workload.source(0, 0).cardinality);
}

TEST(AdaptiveOrdererTest, NullObservedSuppressesEveryRebuild) {
  // The planted bug the sim's check_drift property exists to catch: an
  // orderer built without the statistics its executions are observed into
  // (null `observed`) must keep its initial ranking no matter how far the
  // observations drift.
  const stats::Workload workload = MakeWorkload();
  const auto names = Names(workload);
  AdaptiveOptions options;
  options.drift.band = 1.5;

  auto run = [&](bool wired) -> std::pair<std::vector<core::OrderedPlan>,
                                          int64_t> {
    ObservedStats observed;
    auto adaptive = AdaptiveOrderer::Create(
        &workload, names, wired ? &observed : nullptr, options);
    EXPECT_TRUE(adaptive.ok());
    std::vector<core::OrderedPlan> emissions;
    while (true) {
      auto next = (*adaptive)->Next();
      if (!next.ok()) break;
      Observe(
          names, next->plan,
          [&](int b, int i) {
            return workload.source(b, i).cardinality * 20.0;
          },
          observed);
      emissions.push_back(*next);
    }
    return {emissions, (*adaptive)->rebuilds()};
  };

  const auto [stale, stale_rebuilds] = run(false);
  EXPECT_EQ(stale_rebuilds, 0);
  const auto [reactive, reactive_rebuilds] = run(true);
  EXPECT_GE(reactive_rebuilds, 1);

  // And the stale run equals what a wired orderer serves while nothing is
  // observed: the blend over no observations is an exact copy of the
  // estimates, so both start from the same ranking.
  ObservedStats nothing;
  auto quiet = AdaptiveOrderer::Create(&workload, names, &nothing, options);
  ASSERT_TRUE(quiet.ok());
  auto want = DrainAll(**quiet);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(stale.size(), want->size());
  for (size_t i = 0; i < stale.size(); ++i) {
    EXPECT_EQ(stale[i].plan, (*want)[i].plan) << "step " << i;
    EXPECT_EQ(stale[i].utility, (*want)[i].utility) << "step " << i;
  }
}

TEST(AdaptiveOrdererTest, DiscardedEmissionsDoNotCondition) {
  // Discard-everything through the adaptive wrapper must equal
  // discard-everything through plain IDrips: every emission is evaluated
  // against the empty executed prefix.
  const stats::Workload workload = MakeWorkload();
  auto model = utility::MakeMeasure(utility::MeasureKind::kAdditive,
                                    &workload);
  ASSERT_TRUE(model.ok());
  auto plain = core::IDripsOrderer::Create(
      &workload, model->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(plain.ok());
  std::vector<core::OrderedPlan> want;
  while (true) {
    auto next = (*plain)->Next();
    if (!next.ok()) break;
    want.push_back(*next);
    (*plain)->ReportDiscarded();
  }

  AdaptiveOptions options;
  auto adaptive = AdaptiveOrderer::Create(&workload, Names(workload), nullptr,
                                          options);
  ASSERT_TRUE(adaptive.ok());
  std::vector<core::OrderedPlan> got;
  while (true) {
    auto next = (*adaptive)->Next();
    if (!next.ok()) break;
    got.push_back(*next);
    (*adaptive)->ReportDiscarded();
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].plan, want[i].plan) << "step " << i;
    EXPECT_EQ(got[i].utility, want[i].utility) << "step " << i;
  }
}

TEST(AdaptiveOrdererTest, ExternalResidencyForwardsThroughRebuilds) {
  // Mark an operation externally cached before any emission; under a
  // caching measure the adaptive run must match a plain IDrips run given the
  // same residency — and keep matching emission counts after drift-induced
  // rebuilds (the bits are replayed into each fresh inner orderer).
  const stats::Workload workload = MakeWorkload();
  const auto names = Names(workload);

  auto model = utility::MakeMeasure(utility::MeasureKind::kFailureCache,
                                    &workload);
  ASSERT_TRUE(model.ok());
  auto plain = core::IDripsOrderer::Create(
      &workload, model->get(), {core::PlanSpace::FullSpace(workload)},
      core::IDripsOptions{});
  ASSERT_TRUE(plain.ok());
  (*plain)->SetExternallyCached(0, 1, true);
  auto want = DrainAll(**plain);
  ASSERT_TRUE(want.ok());

  AdaptiveOptions options;
  options.measure = utility::MeasureKind::kFailureCache;
  auto adaptive =
      AdaptiveOrderer::Create(&workload, names, nullptr, options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  (*adaptive)->SetExternallyCached(0, 1, true);
  auto got = DrainAll(**adaptive);
  ASSERT_TRUE(got.ok());

  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].plan, (*want)[i].plan) << "step " << i;
    EXPECT_EQ((*got)[i].utility, (*want)[i].utility) << "step " << i;
  }
}

TEST(AdaptiveOrdererTest, RejectsMalformedNameGrids) {
  const stats::Workload workload = MakeWorkload();
  AdaptiveOptions options;
  EXPECT_FALSE(AdaptiveOrderer::Create(&workload, {}, nullptr, options).ok());
  EXPECT_FALSE(
      AdaptiveOrderer::Create(&workload, {{"a"}, {"b"}}, nullptr, options)
          .ok());
  EXPECT_FALSE(AdaptiveOrderer::Create(nullptr, {}, nullptr, options).ok());
}

}  // namespace
}  // namespace planorder::adaptive
