#ifndef PLANORDER_REFORMULATION_REWRITING_H_
#define PLANORDER_REFORMULATION_REWRITING_H_

#include <optional>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "datalog/source.h"
#include "reformulation/bucket.h"

namespace planorder::reformulation {

/// A conjunctive query plan (Section 2): a rewriting of the user query over
/// source relations, p(Y) :- V1(U1), ..., Vn(Un), together with the source
/// chosen for each subgoal.
struct QueryPlan {
  datalog::ConjunctiveQuery rewriting;
  std::vector<datalog::SourceId> sources;
};

/// Attempts to build a *sound* plan from `choice` (one source per subgoal,
/// e.g. a tuple from the buckets' Cartesian product): unifies each subgoal
/// with an atom of its source's view (backtracking over atom choices when a
/// view mentions the predicate more than once), assembles the rewriting, and
/// keeps the first assembly whose expansion is contained in the query.
/// Returns nullopt when the combination admits no sound plan — the "test
/// each plan and output only the sound ones" step of the bucket algorithm.
StatusOr<std::optional<QueryPlan>> BuildSoundPlan(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const std::vector<datalog::SourceId>& choice);

/// The expansion of a plan: every source atom replaced by its (renamed-apart)
/// view definition, unified with the atom's arguments. The expansion is a
/// conjunctive query over schema relations describing everything the plan
/// could possibly return.
StatusOr<datalog::ConjunctiveQuery> ExpandPlan(
    const QueryPlan& plan, const datalog::Catalog& catalog);

/// True iff the plan is sound for `query`: its expansion is contained in the
/// query, so every tuple it produces is an answer.
StatusOr<bool> IsSound(const QueryPlan& plan,
                       const datalog::ConjunctiveQuery& query,
                       const datalog::Catalog& catalog);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFORMULATION_REWRITING_H_
