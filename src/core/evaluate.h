#ifndef PLANORDER_CORE_EVALUATE_H_
#define PLANORDER_CORE_EVALUATE_H_

#include <cstdint>

#include "utility/model.h"

namespace planorder::core {

/// Utility of a (possibly abstract) plan given by its nodes' summaries in
/// bucket order, counted once in `evaluations` (may be null) — the paper's
/// cost metric. The result is the model's enclosure of every member's
/// utility, and every orderer prunes with it as is: p eliminates q when
/// l_p >= h_q (Section 5.1), so any member of p dominates q.
inline Interval EvaluateCounted(utility::NodeSpan nodes,
                                const utility::UtilityModel& model,
                                const utility::ExecutionContext& ctx,
                                int64_t* evaluations) {
  if (evaluations != nullptr) ++*evaluations;
  return model.Evaluate(nodes, ctx);
}

}  // namespace planorder::core

#endif  // PLANORDER_CORE_EVALUATE_H_
