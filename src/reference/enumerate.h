#ifndef PLANORDER_REFERENCE_ENUMERATE_H_
#define PLANORDER_REFERENCE_ENUMERATE_H_

#include <vector>

#include "base/status.h"
#include "core/plan_space.h"
#include "datalog/conjunctive_query.h"
#include "datalog/source.h"
#include "reformulation/rewriting.h"

/// The brute-force enumerations the references and oracles stand on; no
/// production path materializes a whole plan space.

namespace planorder::core {

/// Materializes every concrete plan of `space` in odometer order (bucket 0
/// fastest). The oracle hook shared by the PI baseline and the simulation
/// harness's exhaustive-order oracle (src/sim/oracle.h): small plan spaces
/// are enumerated once and checked brute-force. Requires !space.IsEmpty().
std::vector<ConcretePlan> EnumeratePlans(const PlanSpace& space);

}  // namespace planorder::core

namespace planorder::reformulation {

/// Brute-force reference: all sound plans of the buckets' Cartesian product,
/// in enumeration order. For tests, examples, and small queries.
StatusOr<std::vector<QueryPlan>> EnumerateSoundPlans(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFERENCE_ENUMERATE_H_
