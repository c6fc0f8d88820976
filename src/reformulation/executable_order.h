#ifndef PLANORDER_REFORMULATION_EXECUTABLE_ORDER_H_
#define PLANORDER_REFORMULATION_EXECUTABLE_ORDER_H_

#include <vector>

#include "base/status.h"
#include "reformulation/rewriting.h"

namespace planorder::reformulation {

/// Orders the atoms of a rewriting so that it is *executable* against
/// sources with limited access patterns: every source atom is placed only
/// once the positions its adornment marks 'b' are bound — by constants or by
/// variables produced by earlier atoms. Interpreted comparisons are placed
/// as soon as their variables bind.
///
/// Greedy placement is complete here: placing any executable atom only grows
/// the set of bound variables, so it can never block another placement.
///
/// Returns the plan with its body (and the aligned source list) reordered,
/// or FailedPrecondition when no executable order exists (e.g. two sources
/// that each require the other's output).
StatusOr<QueryPlan> FindExecutableOrder(const QueryPlan& plan,
                                        const datalog::Catalog& catalog);

/// What the plan gate decided about one orderer emission.
enum class PlanVerdict {
  kUnsound,        // the source combination admits no sound plan
  kNotExecutable,  // sound, but no atom order meets the access patterns
  kUsable,         // sound and executable
};

/// The gate's outcome: `plan` is set, in executable atom order, only when
/// `verdict` is kUsable.
struct ResolvedPlan {
  PlanVerdict verdict = PlanVerdict::kUnsound;
  QueryPlan plan;
};

/// The one plan gate every orderer-driven caller goes through (Section 2's
/// "test each plan, output only the sound ones", plus limited access
/// patterns). Translates the orderer's bucket-index plan into catalog
/// sources (`source_ids[b][bucket_plan[b]]`), builds the sound rewriting
/// (BuildSoundPlan) and orders its atoms executably (FindExecutableOrder).
/// Callers report every non-kUsable verdict to the orderer with
/// ReportDiscarded so the plan does not condition later utilities.
///
/// Returns kInvalidArgument when `bucket_plan` does not index `source_ids`,
/// and every other error of the two checks; "no sound plan" and "no
/// executable order" are verdicts, not errors.
StatusOr<ResolvedPlan> ResolvePlan(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const std::vector<std::vector<datalog::SourceId>>& source_ids,
    const std::vector<int>& bucket_plan);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFORMULATION_EXECUTABLE_ORDER_H_
