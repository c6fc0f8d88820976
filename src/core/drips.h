#ifndef PLANORDER_CORE_DRIPS_H_
#define PLANORDER_CORE_DRIPS_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "core/abstraction.h"
#include "core/orderer.h"
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

/// iDrips as Section 5.2 states it: every emission re-runs Drips from the
/// forest roots of the current plan spaces, then removes the winner by
/// splitting its space around it (Figure 2) and re-abstracting the pieces.
/// It emits what IDripsOrderer's persistent frontier emits at far more
/// evaluations: the paper-faithful reference that bench_core and
/// planbench's fig6-order check the frontier against. name() is "idrips".
class IDripsRebuildOrderer : public Orderer {
 public:
  static StatusOr<std::unique_ptr<Orderer>> Create(
      const stats::Workload* workload, utility::UtilityModel* model,
      std::vector<PlanSpace> spaces,
      AbstractionHeuristic heuristic = AbstractionHeuristic::kByCardinality);

  std::string name() const override { return "idrips"; }

 protected:
  StatusOr<OrderedPlan> ComputeNext() override;

 private:
  struct SpaceEntry {
    PlanSpace space;
    AbstractionForest forest;
  };

  IDripsRebuildOrderer(const stats::Workload* workload,
                       utility::UtilityModel* model,
                       AbstractionHeuristic heuristic)
      : Orderer(workload, model), heuristic_(heuristic) {}

  /// (Re-)abstracts a split space.
  void AddSpace(PlanSpace space);

  AbstractionHeuristic heuristic_;
  std::vector<std::unique_ptr<SpaceEntry>> spaces_;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_DRIPS_H_
