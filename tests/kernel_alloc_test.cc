/// Counts the heap allocations of exec::ExecutePlanDependent over a fixed
/// set of executable plans (bench/kernel_plans.h), with the counting global
/// operator new of bench/alloc_counter.cc. Allocation counts are exact and
/// repeatable where wall clock on a shared host is not, so a representation
/// change that brings per-partial copies back fails here.

#include <gtest/gtest.h>

#include "kernel_plans.h"

namespace planorder::bench {
namespace {

/// Allocations per executed plan of the slot-compiled kernel, as measured
/// when it was introduced: 137,122 allocations (15,865,288 bytes) over the
/// 256 plans, 535.6 per plan. The kernel it replaced, which copied a
/// std::map Substitution per frontier x row pair, made 1,953,279
/// allocations (250,015,592 bytes) on the same set: 7,630 per plan.
constexpr double kMaxAllocationsPerPlan = 536;

TEST(KernelAllocTest, AllocationsPerPlanStayBounded) {
  std::unique_ptr<KernelPlanSet> set = BuildKernelPlanSet();
  ASSERT_EQ(set->rewritings.size(), size_t(KernelPlanSet::kPlans));
  const KernelWork work = MeasureKernel(*set, /*timed_passes=*/0);
  std::cout << "allocations " << work.allocations << ", bytes " << work.bytes
            << " over " << work.plans << " plans\n";
  EXPECT_LE(work.allocations_per_plan(), kMaxAllocationsPerPlan);
}

}  // namespace
}  // namespace planorder::bench
