#ifndef PLANORDER_ANYK_BRUTE_FORCE_H_
#define PLANORDER_ANYK_BRUTE_FORCE_H_

#include <vector>

#include "anyk/weights.h"
#include "base/status.h"
#include "datalog/evaluator.h"

namespace planorder::anyk {

/// Reference oracle for ranked enumeration: materializes EVERY witness of
/// `query` over `facts` by naive backtracking join (no join tree, no DP, no
/// pruning — deliberately nothing in common with AnyKEnumerator's machinery),
/// aggregates each witness's tuple weights, keeps the best weight per
/// distinct head instantiation, and returns the answers sorted in the
/// canonical ranked order (RankedBefore). Exponential in the body size; for
/// tests and differential checks only.
///
/// Errors mirror the executor's contract: kInvalidArgument on an empty body
/// or a bad WeightOptions::scale, kUnimplemented on comparison atoms or
/// non-ground function arguments, and the query must be safe.
StatusOr<std::vector<RankedAnswer>> BruteForceRankedAnswers(
    const datalog::ConjunctiveQuery& query, const datalog::Database& facts,
    const WeightOptions& options);

/// Union-of-rewritings variant: the ranked answer set of a query whose result
/// is the union of several conjunctive rewritings (the mediator's sound
/// plans). An answer produced by several rewritings keeps its best weight
/// across all of them. Same canonical output order.
StatusOr<std::vector<RankedAnswer>> BruteForceRankedUnion(
    const std::vector<datalog::ConjunctiveQuery>& queries,
    const datalog::Database& facts, const WeightOptions& options);

}  // namespace planorder::anyk

#endif  // PLANORDER_ANYK_BRUTE_FORCE_H_
