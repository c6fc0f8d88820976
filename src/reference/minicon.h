#ifndef PLANORDER_REFERENCE_MINICON_H_
#define PLANORDER_REFERENCE_MINICON_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "datalog/source.h"
#include "datalog/unify.h"
#include "reformulation/rewriting.h"

namespace planorder::reformulation {

/// A MiniCon description (Pottinger & Levy; Section 7 of the paper): source
/// `source` covers the set of query subgoals in `subgoals` (bitmask over body
/// positions) under the variable mapping `mapping` (bindings between query
/// variables and the variables of `renamed_view`). Minimal: the subgoal set
/// is exactly the closure forced by existential-variable coverage.
struct Mcd {
  datalog::SourceId source = -1;
  uint64_t subgoals = 0;
  datalog::Substitution mapping;
  datalog::ConjunctiveQuery renamed_view;

  int num_subgoals() const { return __builtin_popcountll(subgoals); }
};

/// Forms all MCDs for `query` (up to 64 subgoals). Deduplicates MCDs that
/// cover the same subgoals with the same source and equivalent mappings.
StatusOr<std::vector<Mcd>> FormMcds(const datalog::ConjunctiveQuery& query,
                                    const datalog::Catalog& catalog);

/// A generalized bucket (Section 7): the MCDs covering one particular subgoal
/// set. Combining one MCD from each bucket of a partition of the query's
/// subgoals yields a sound plan with no containment check needed.
struct GeneralizedBucket {
  uint64_t subgoals = 0;
  std::vector<int> mcd_indices;  // indices into the FormMcds result
};

/// Groups MCDs by covered subgoal set.
std::vector<GeneralizedBucket> GroupMcds(const std::vector<Mcd>& mcds);

/// A MiniCon plan space: generalized buckets whose subgoal sets partition all
/// query subgoals. Every combination (one MCD per bucket) is a sound plan.
struct McdPlanSpace {
  std::vector<int> bucket_indices;  // indices into the GroupMcds result
};

/// All plan spaces: partitions of the query's subgoals into available
/// generalized-bucket subgoal sets.
std::vector<McdPlanSpace> BuildMcdPlanSpaces(
    const datalog::ConjunctiveQuery& query,
    const std::vector<GeneralizedBucket>& buckets);

/// Builds the rewriting for one MCD combination (pairwise disjoint subgoal
/// sets covering the whole query).
StatusOr<QueryPlan> CombineMcds(const datalog::ConjunctiveQuery& query,
                                const datalog::Catalog& catalog,
                                const std::vector<const Mcd*>& combination);

/// All MiniCon rewritings of `query` — the reference the tests compare
/// against the bucket algorithm's sound plans.
StatusOr<std::vector<QueryPlan>> EnumerateMiniConPlans(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFERENCE_MINICON_H_
