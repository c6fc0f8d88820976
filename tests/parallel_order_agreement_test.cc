// Checks the persistent iDrips frontier's incremental claim (DESIGN.md §6):
// it orders exactly like the rebuild-every-emission reference
// (IDripsRebuildOrderer), with strictly fewer utility evaluations, on a
// conditional measure.
#include <gtest/gtest.h>

#include "core/drips.h"
#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

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
  // The flag selects the class: the frontier, or the rebuild reference.
  auto* frontier = dynamic_cast<IDripsOrderer*>(persistent->get());
  ASSERT_NE(frontier, nullptr);
  EXPECT_NE(dynamic_cast<IDripsRebuildOrderer*>(rebuild->get()), nullptr);

  const std::vector<OrderedPlan> a = Drain(**persistent);
  const std::vector<OrderedPlan> b = Drain(**rebuild);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 8u * 8u * 8u);
  // Exact ordering: identical utility sequences (plans may differ on ties).
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].utility, b[i].utility, 1e-9) << "emission " << i;
  }
  EXPECT_LT((*persistent)->plan_evaluations(), (*rebuild)->plan_evaluations());
  EXPECT_EQ(frontier->frontier_size(), 0u);
}

}  // namespace
}  // namespace planorder::core
