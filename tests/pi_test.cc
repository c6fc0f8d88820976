// The PI reference orderer (src/core/pi.{h,cc}) and the independence
// machinery it leans on. Three layers of contract:
//
//  - PI with the independence filter emits the same utility sequence as the
//    naive brute force that re-evaluates everything (and, for fully
//    independent measures, the byte-identical plan sequence);
//  - the filter actually saves work: exact evaluation-count accounting on a
//    fully independent measure, monotone accounting on coverage;
//  - the predicates PI and iDrips trust are *sound*: whenever Independent /
//    GroupIndependentOf answers true, executing the other plan must leave the
//    claimed utility (interval) bit-for-bit unaffected — the suffix-walk
//    contract RefreshStaleCandidates fast-forwards epochs with.
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/abstraction.h"
#include "core/plan_space.h"
#include "reference/enumerate.h"
#include "test_util.h"
#include "utility/execution_context.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;
using utility::ConcretePlan;
using utility::ExecutionContext;

// Utilities that must be "the same number" computed twice along possibly
// different float paths; scale-aware so large cost magnitudes don't trip it.
void ExpectSameUtility(double a, double b, const std::string& what) {
  EXPECT_NEAR(a, b, 1e-9 * (1.0 + std::abs(a))) << what;
}

std::unique_ptr<PiOrderer> MustMakePi(const stats::Workload* w,
                                      utility::UtilityModel* m,
                                      bool use_independence) {
  auto orderer = PiOrderer::Create(w, m, {PlanSpace::FullSpace(*w)},
                                   use_independence);
  EXPECT_TRUE(orderer.ok()) << orderer.status();
  return std::move(*orderer);
}

TEST(PiTest, MatchesNaiveBruteForceOnAllMeasures) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    test::SeededScenario scenario("pi_test", seed);
    const stats::Workload w = MakeWorkload(3, 5, 0.4, scenario.seed());
    for (Measure measure :
         {Measure::kAdditive, Measure::kCost2, Measure::kFailureNoCache,
          Measure::kFailureCache, Measure::kMonetary, Measure::kMonetaryCache,
          Measure::kCoverage}) {
      SCOPED_TRACE(test::MeasureName(measure));
      auto pi_model = MustMakeMeasure(measure, &w);
      auto naive_model = MustMakeMeasure(measure, &w);
      auto pi = MustMakePi(&w, pi_model.get(), /*use_independence=*/true);
      auto naive = MustMakePi(&w, naive_model.get(),
                              /*use_independence=*/false);
      EXPECT_EQ(pi->name(), "pi");
      EXPECT_EQ(naive->name(), "naive");

      const std::vector<OrderedPlan> a = Drain(*pi);
      const std::vector<OrderedPlan> b = Drain(*naive);
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(a.size(), 5u * 5u * 5u);
      for (size_t i = 0; i < a.size(); ++i) {
        // Exact ordering: the utility sequences agree; plans may differ only
        // on ties. For a fully independent measure the cached value IS the
        // recomputed value, so even the plan sequence is byte-identical.
        EXPECT_NEAR(a[i].utility, b[i].utility, 1e-9) << "emission " << i;
        if (pi_model->fully_independent()) {
          EXPECT_EQ(a[i].plan, b[i].plan) << "emission " << i;
          EXPECT_EQ(a[i].utility, b[i].utility) << "emission " << i;
        }
      }
    }
  }
}

TEST(PiTest, IndependenceFilterSavesEvaluations) {
  const stats::Workload w = MakeWorkload(3, 5, 0.4, 99);
  const int64_t n = 5 * 5 * 5;

  {
    // Fully independent measure: nothing ever goes dirty again, so PI
    // evaluates each plan exactly once while the naive mode re-evaluates
    // every surviving plan per emission: n + (n-1) + ... + 1.
    auto pi_model = MustMakeMeasure(Measure::kFailureNoCache, &w);
    ASSERT_TRUE(pi_model->fully_independent());
    auto naive_model = MustMakeMeasure(Measure::kFailureNoCache, &w);
    auto pi = MustMakePi(&w, pi_model.get(), true);
    auto naive = MustMakePi(&w, naive_model.get(), false);
    Drain(*pi);
    Drain(*naive);
    EXPECT_EQ(pi->plan_evaluations(), n);
    EXPECT_EQ(naive->plan_evaluations(), n * (n + 1) / 2);
  }
  {
    // Conditional measure: the filter may only ever skip work, never add it.
    auto pi_model = MustMakeMeasure(Measure::kCoverage, &w);
    ASSERT_FALSE(pi_model->fully_independent());
    auto naive_model = MustMakeMeasure(Measure::kCoverage, &w);
    auto pi = MustMakePi(&w, pi_model.get(), true);
    auto naive = MustMakePi(&w, naive_model.get(), false);
    Drain(*pi);
    Drain(*naive);
    EXPECT_LE(pi->plan_evaluations(), naive->plan_evaluations());
  }
}

TEST(PiTest, MeasureClassificationMatrix) {
  const stats::Workload w = MakeWorkload(3, 4, 0.4, 5);

  struct Row {
    Measure measure;
    bool fully_monotonic;
    bool diminishing_returns;
    bool fully_independent;
  };
  // Section 3's taxonomy: additive and uniform-alpha cost are fully
  // monotonic; operation caching is what breaks both diminishing returns and
  // independence; coverage keeps diminishing returns but conditions on the
  // covered cells.
  const Row rows[] = {
      {Measure::kAdditive, true, true, true},
      {Measure::kCost2, false, true, true},
      {Measure::kFailureNoCache, false, true, true},
      {Measure::kFailureCache, false, false, false},
      {Measure::kMonetary, false, true, true},
      {Measure::kMonetaryCache, false, false, false},
      {Measure::kCoverage, false, true, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(test::MeasureName(row.measure));
    auto model = MustMakeMeasure(row.measure, &w);
    EXPECT_EQ(model->fully_monotonic(), row.fully_monotonic);
    EXPECT_EQ(model->diminishing_returns(), row.diminishing_returns);
    EXPECT_EQ(model->fully_independent(), row.fully_independent);
    // fully_independent must imply the pairwise predicate is always true.
    if (row.fully_independent) {
      EXPECT_TRUE(model->Independent({0, 0, 0}, {3, 3, 3}));
    }
  }

  // Measure (2) with uniform alpha needs a workload whose transmission costs
  // actually are uniform; then (and only then) it is fully monotonic.
  EXPECT_FALSE(utility::MakeMeasure(Measure::kCost2UniformAlpha, &w).ok());
  stats::WorkloadOptions uniform;
  uniform.query_length = 3;
  uniform.bucket_size = 4;
  uniform.overlap_rate = 0.4;
  uniform.regions_per_bucket = 12;
  uniform.alpha_min = 0.4;
  uniform.alpha_max = 0.4;
  uniform.seed = 5;
  auto uw = stats::Workload::Generate(uniform);
  ASSERT_TRUE(uw.ok()) << uw.status();
  auto uniform_model = MustMakeMeasure(Measure::kCost2UniformAlpha, &*uw);
  EXPECT_TRUE(uniform_model->fully_monotonic());
  EXPECT_TRUE(uniform_model->diminishing_returns());
  EXPECT_TRUE(uniform_model->fully_independent());
}

// Soundness of the pairwise predicate: whenever Independent(a, b) is true,
// executing b must leave a's utility unchanged (and vice versa — the
// definition is symmetric in what it licenses). Independent is derived from
// each measure's GroupIndependentOf, so every measure is checked against the
// evaluation oracle, the always-independent ones included.
TEST(PiTest, IndependentPredicateIsSound) {
  test::SeededScenario scenario("pi_test", 4242);
  std::mt19937_64& rng = scenario.rng();
  const stats::Workload varying = MakeWorkload(3, 5, 0.3, scenario.seed());
  const stats::Workload uniform =
      MakeWorkload(3, 5, 0.3, scenario.seed(), /*uniform_alpha=*/true);
  const std::vector<ConcretePlan> plans =
      EnumeratePlans(PlanSpace::FullSpace(varying));
  auto random_plan = [&]() { return plans[rng() % plans.size()]; };

  for (Measure measure : test::kAllMeasures) {
    SCOPED_TRACE(test::MeasureName(measure));
    const stats::Workload& w =
        measure == Measure::kCost2UniformAlpha ? uniform : varying;
    auto model = MustMakeMeasure(measure, &w);
    int independent_pairs = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const ConcretePlan a = random_plan();
      const ConcretePlan b = random_plan();
      if (!model->Independent(a, b)) continue;
      ++independent_pairs;
      // Test from a random prior context, not only the empty one: the
      // predicate's claim is unconditional in the executed set.
      std::vector<ConcretePlan> prior;
      for (int k = 0; k < static_cast<int>(rng() % 3); ++k) {
        prior.push_back(random_plan());
      }
      ExecutionContext ctx(&w);
      for (const ConcretePlan& p : prior) ctx.MarkExecuted(p);
      const double a_before = model->EvaluateConcrete(a, ctx);
      const double b_before = model->EvaluateConcrete(b, ctx);
      ctx.MarkExecuted(b);
      ExpectSameUtility(a_before, model->EvaluateConcrete(a, ctx),
                        "u(a) changed by executing b, trial " +
                            std::to_string(trial));
      ctx.Reset();
      for (const ConcretePlan& p : prior) ctx.MarkExecuted(p);
      ctx.MarkExecuted(a);
      ExpectSameUtility(b_before, model->EvaluateConcrete(b, ctx),
                        "u(b) changed by executing a, trial " +
                            std::to_string(trial));
    }
    // The sampler must have exercised the true branch or the test is vacuous.
    EXPECT_GT(independent_pairs, 0);
  }
}

// Soundness of group independence, the contract iDrips' frontier refresh
// walks executed suffixes with: if GroupIndependentOf(nodes, p) then no
// concrete member of the group changes utility when p runs — so the group's
// utility *interval* must be identical before and after, and a stale
// candidate may skip p when fast-forwarding its evaluation epoch.
TEST(PiTest, GroupIndependentOfIsSound) {
  test::SeededScenario scenario("pi_test", 777);
  std::mt19937_64& rng = scenario.rng();
  const stats::Workload varying = MakeWorkload(3, 6, 0.3, scenario.seed());
  const stats::Workload uniform =
      MakeWorkload(3, 6, 0.3, scenario.seed(), /*uniform_alpha=*/true);
  const PlanSpace full = PlanSpace::FullSpace(varying);
  const std::vector<ConcretePlan> plans = EnumeratePlans(full);

  for (Measure measure : test::kAllMeasures) {
    SCOPED_TRACE(test::MeasureName(measure));
    const stats::Workload& w =
        measure == Measure::kCost2UniformAlpha ? uniform : varying;
    auto model = MustMakeMeasure(measure, &w);
    const AbstractionForest forest = AbstractionForest::Build(
        w, full, AbstractionHeuristic::kByCardinality);
    int independent_groups = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const AbstractPlan group = test::RandomAbstractPlan(forest, rng);
      const std::vector<const stats::StatSummary*> summaries =
          group.Summaries();
      const utility::NodeSpan span(summaries.data(), summaries.size());
      const ConcretePlan executed = plans[rng() % plans.size()];
      if (!model->GroupIndependentOf(span, executed)) continue;
      ++independent_groups;
      ExecutionContext ctx(&w);
      for (int k = 0; k < static_cast<int>(rng() % 3); ++k) {
        ctx.MarkExecuted(plans[rng() % plans.size()]);
      }
      const Interval before = model->Evaluate(span, ctx);
      ctx.MarkExecuted(executed);
      const Interval after = model->Evaluate(span, ctx);
      ExpectSameUtility(before.lo(), after.lo(),
                        "group lower bound moved, trial " +
                            std::to_string(trial));
      ExpectSameUtility(before.hi(), after.hi(),
                        "group upper bound moved, trial " +
                            std::to_string(trial));
      // Spot-check the definition member-wise on one concrete plan of the
      // group: the first member of each node.
      ConcretePlan member;
      for (const stats::StatSummary* s : summaries) {
        member.push_back(s->members.front());
      }
      ExecutionContext member_ctx(&w);
      const double member_before = model->EvaluateConcrete(member, member_ctx);
      member_ctx.MarkExecuted(executed);
      ExpectSameUtility(member_before,
                        model->EvaluateConcrete(member, member_ctx),
                        "member utility moved, trial " + std::to_string(trial));
    }
    EXPECT_GT(independent_groups, 0);
  }
}

}  // namespace
}  // namespace planorder::core
