#ifndef PLANORDER_CORE_ORDERER_FACTORY_H_
#define PLANORDER_CORE_ORDERER_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/abstraction.h"
#include "core/orderer.h"
#include "core/plan_space.h"

namespace planorder::core {

/// The plan-ordering algorithms, by name.
enum class OrdererKind {
  /// Greedy when the measure is fully monotonic; otherwise persistent
  /// iDrips. (Section 6 also suggests Streamer under diminishing returns;
  /// the persistent frontier is cheaper there, so Streamer is kept only as
  /// the paper's reference, by name.)
  kAuto,
  kGreedy,         // Section 4; fully monotonic measures only
  kIDrips,         // Section 5.2, persistent frontier (DESIGN.md §6)
  kIDripsRebuild,  // Section 5.2, re-run Drips from the roots each emission
  kStreamer,       // Section 5.2 Figure 5; diminishing-returns measures only
  kPi,             // the PI reference (brute force + independence filter)
  kNaive,          // brute force re-evaluating every plan each emission
};

/// Stable name ("auto", "greedy", "idrips", "idrips-rebuild", "streamer",
/// "pi", "naive"), and its inverse (kInvalidArgument on an unknown name).
std::string OrdererKindName(OrdererKind kind);
StatusOr<OrdererKind> OrdererKindFromName(const std::string& name);

/// Everything MakeOrderer needs besides the workload, model and spaces.
struct OrdererSpec {
  OrdererKind kind = OrdererKind::kAuto;
  /// How the abstraction-based orderers (iDrips, Streamer) group sources.
  AbstractionHeuristic heuristic = AbstractionHeuristic::kByCardinality;
};

/// True when `kind` can order under `model`: Greedy needs full
/// monotonicity, Streamer diminishing returns; the rest are universal.
bool Applicable(OrdererKind kind, const utility::UtilityModel& model);

/// Builds the orderer `spec` names over `spaces`, resolving kAuto against
/// `model` (Greedy if fully monotonic, else persistent iDrips).
/// kFailedPrecondition when the algorithm does not apply to `model`.
/// `workload` and `model` must outlive the orderer.
StatusOr<std::unique_ptr<Orderer>> MakeOrderer(const OrdererSpec& spec,
                                               const stats::Workload* workload,
                                               utility::UtilityModel* model,
                                               std::vector<PlanSpace> spaces);

}  // namespace planorder::core

#endif  // PLANORDER_CORE_ORDERER_FACTORY_H_
