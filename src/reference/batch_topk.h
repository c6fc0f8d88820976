#ifndef PLANORDER_REFERENCE_BATCH_TOPK_H_
#define PLANORDER_REFERENCE_BATCH_TOPK_H_

#include <vector>

#include "base/status.h"
#include "core/abstraction.h"
#include "core/orderer.h"

namespace planorder::core {

/// Batch top-k plan selection by abstraction-guided branch and bound — the
/// style of algorithm the related work discusses (Leser & Naumann, Section
/// 7): it "assumes full plan independence" and "is designed to return all k
/// plans at once" rather than incrementally. Included as a comparison
/// baseline and as the right tool when k is known up front and the measure
/// never conditions on executed plans.
///
/// Strategy: best-first search over the abstraction forests, expanding the
/// abstract plan with the highest utility upper bound; abstract plans whose
/// upper bound cannot reach the current k-th best concrete utility are
/// pruned. Requires model->fully_independent().
StatusOr<std::vector<OrderedPlan>> BatchTopK(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, int k,
    AbstractionHeuristic heuristic = AbstractionHeuristic::kByCardinality,
    int64_t* evaluations = nullptr);

}  // namespace planorder::core

#endif  // PLANORDER_REFERENCE_BATCH_TOPK_H_
