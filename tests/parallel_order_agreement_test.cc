// Determinism contract of the parallel ordering core (DESIGN.md §6): with a
// thread pool injected, every orderer must emit exactly the same (plan,
// utility) sequence — and perform exactly the same number of utility
// evaluations — as its serial run. Also checks the persistent iDrips
// frontier's incremental claim: strictly fewer evaluations than the
// rebuild-every-emission mode on a conditional measure.
#include <gtest/gtest.h>

#include "core/orderer_factory.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

StatusOr<std::unique_ptr<Orderer>> Make(OrdererKind algo,
                                        const stats::Workload* w,
                                        utility::UtilityModel* m,
                                        bool probes) {
  return MakeOrderer({algo, AbstractionHeuristic::kByCardinality, probes}, w,
                     m, {PlanSpace::FullSpace(*w)});
}

class ParallelAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelAgreementTest, PoolDoesNotChangeEmissionsOrEvaluationCounts) {
  test::SeededScenario scenario("parallel_order_agreement_test", GetParam());
  const stats::Workload w = MakeWorkload(3, 6, 0.4, scenario.seed());
  runtime::ThreadPool pool(4);
  // The Section-6 measures plus the two fully monotonic ones so Greedy is
  // exercised; inapplicable (measure, algorithm) pairs are skipped.
  for (Measure measure :
       {Measure::kAdditive, Measure::kCost2UniformAlpha,
        Measure::kFailureNoCache, Measure::kFailureCache, Measure::kMonetary,
        Measure::kCoverage}) {
    for (OrdererKind algo : {OrdererKind::kGreedy, OrdererKind::kIDrips,
                             OrdererKind::kStreamer}) {
      for (bool probes : {false, true}) {
        // Greedy never probes.
        if (algo == OrdererKind::kGreedy && probes) continue;
        // Some measures reject some generated workloads (e.g. uniform-alpha
        // cost over varying transmission costs); skip those combinations.
        auto maybe_serial = utility::MakeMeasure(measure, &w);
        auto maybe_parallel = utility::MakeMeasure(measure, &w);
        if (!maybe_serial.ok() || !maybe_parallel.ok()) continue;
        std::unique_ptr<utility::UtilityModel> serial_model =
            std::move(*maybe_serial);
        std::unique_ptr<utility::UtilityModel> parallel_model =
            std::move(*maybe_parallel);
        if (!Applicable(algo, *serial_model)) continue;
        SCOPED_TRACE(OrdererKindName(algo) + "/" +
                     test::MeasureName(measure) +
                     (probes ? "/probes" : "/plain"));
        auto serial = Make(algo, &w, serial_model.get(), probes);
        ASSERT_TRUE(serial.ok()) << serial.status();
        auto parallel = Make(algo, &w, parallel_model.get(), probes);
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        (*parallel)->set_eval_pool(&pool);

        const std::vector<OrderedPlan> a = Drain(**serial);
        const std::vector<OrderedPlan> b = Drain(**parallel);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_GT(a.size(), 0u);
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].plan, b[i].plan) << "emission " << i;
          // Byte-identical, not just close: parallelism must not reassociate
          // any arithmetic.
          EXPECT_EQ(a[i].utility, b[i].utility) << "emission " << i;
        }
        EXPECT_EQ((*serial)->plan_evaluations(),
                  (*parallel)->plan_evaluations());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(PersistentFrontierTest, FewerEvaluationsThanRebuildOnCoverage) {
  // Coverage is conditional (executions change utilities), the worst case
  // for the frontier: even so, carrying candidates across emissions must
  // beat re-running Drips from the forest roots every time.
  const stats::Workload w = MakeWorkload(3, 8, 0.4, 7);
  auto persistent_model = MustMakeMeasure(Measure::kCoverage, &w);
  auto rebuild_model = MustMakeMeasure(Measure::kCoverage, &w);

  IDripsOptions persistent_options;
  persistent_options.persistent_frontier = true;
  auto persistent = IDripsOrderer::Create(
      &w, persistent_model.get(), {PlanSpace::FullSpace(w)},
      persistent_options);
  ASSERT_TRUE(persistent.ok()) << persistent.status();

  IDripsOptions rebuild_options;
  rebuild_options.persistent_frontier = false;
  auto rebuild = IDripsOrderer::Create(&w, rebuild_model.get(),
                                       {PlanSpace::FullSpace(w)},
                                       rebuild_options);
  ASSERT_TRUE(rebuild.ok()) << rebuild.status();

  const std::vector<OrderedPlan> a = Drain(**persistent);
  const std::vector<OrderedPlan> b = Drain(**rebuild);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 8u * 8u * 8u);
  // Exact ordering: identical utility sequences (plans may differ on ties).
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].utility, b[i].utility, 1e-9) << "emission " << i;
  }
  EXPECT_LT((*persistent)->plan_evaluations(), (*rebuild)->plan_evaluations());
  EXPECT_EQ((*persistent)->frontier_size(), 0u);
}

}  // namespace
}  // namespace planorder::core
