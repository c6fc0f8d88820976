#ifndef PLANORDER_CORE_DRIPS_H_
#define PLANORDER_CORE_DRIPS_H_

#include <vector>

#include "base/status.h"
#include "core/abstraction.h"
#include "utility/model.h"

namespace planorder::core {

/// Result of a Drips run: the winning concrete plan.
struct DripsResult {
  /// The winner as an abstract plan (all leaves) — identifies which starting
  /// forest it came from via winner.forest.
  AbstractPlan winner;
  ConcretePlan plan;
  double utility = 0.0;
};

/// The Drips decision-theoretic planner (Section 5.1): given the top abstract
/// plan of each starting forest, iteratively refines the most promising
/// abstract plan and eliminates plans whose utility interval is dominated
/// (l_p >= h_q), until a single concrete plan survives — the highest-utility
/// concrete plan across the starts, found without evaluating most of them.
///
/// Utilities are conditioned on `ctx`; `evaluations` (may be null) is
/// incremented once per plan evaluation, the paper's cost metric.
StatusOr<DripsResult> RunDrips(const std::vector<AbstractPlan>& starts,
                               const utility::UtilityModel& model,
                               const utility::ExecutionContext& ctx,
                               int64_t* evaluations);

}  // namespace planorder::core

#endif  // PLANORDER_CORE_DRIPS_H_
