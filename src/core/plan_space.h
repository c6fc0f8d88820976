#ifndef PLANORDER_CORE_PLAN_SPACE_H_
#define PLANORDER_CORE_PLAN_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "utility/execution_context.h"

namespace planorder::core {

using utility::ConcretePlan;

/// A plan space (Section 4): the set of plans formed by the Cartesian product
/// of a set of buckets. `buckets[b]` lists the workload source indices
/// available for subgoal b; a plan picks one per bucket.
struct PlanSpace {
  std::vector<std::vector<int>> buckets;

  /// The full space over a workload: bucket b = {0 .. bucket_size(b)-1}.
  static PlanSpace FullSpace(const stats::Workload& workload);

  int num_buckets() const { return static_cast<int>(buckets.size()); }

  /// Number of plans in the space (product of bucket sizes).
  uint64_t NumPlans() const;

  /// True when `plan` picks a member of every bucket.
  bool Contains(const ConcretePlan& plan) const;

  /// True when some bucket is empty, i.e. the space holds no plans.
  bool IsEmpty() const {
    for (const auto& bucket : buckets) {
      if (bucket.empty()) return true;
    }
    return false;
  }

  std::string ToString() const;
};

/// Shared orderer-construction validation: the workload must have at most
/// BitmaskUniverse::kMaxDims buckets and the spaces must match its bucket
/// structure (kInvalidArgument otherwise); spaces with an empty bucket hold
/// no plans and are dropped. Returns the surviving spaces.
StatusOr<std::vector<PlanSpace>> ValidateSpaces(
    const stats::Workload& workload, std::vector<PlanSpace> spaces);

/// Removes `plan` from `space` by the paper's recursive splitting (Figure 2):
/// the result is up to m spaces that together contain exactly the plans of
/// `space` other than `plan`. Space i pins buckets 0..i-1 to the plan's
/// sources and excludes the plan's source from bucket i; empty splits are
/// dropped. Requires space.Contains(plan).
std::vector<PlanSpace> SplitAround(const PlanSpace& space,
                                   const ConcretePlan& plan);

}  // namespace planorder::core

#endif  // PLANORDER_CORE_PLAN_SPACE_H_
