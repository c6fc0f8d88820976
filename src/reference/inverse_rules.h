#ifndef PLANORDER_REFERENCE_INVERSE_RULES_H_
#define PLANORDER_REFERENCE_INVERSE_RULES_H_

#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "reformulation/bucket.h"

namespace planorder::reformulation {

/// The inverse-rule reformulation algorithm (Duschka & Genesereth; Section 7
/// of the paper). For a source V(X) :- p1(Y1), ..., pk(Yk), each body atom
/// yields the rule  pi(Yi θ) :- V(X)  where θ replaces every existential view
/// variable Z by the Skolem term f_<V>_<Z>(X): the rules specify for each
/// schema relation all ways to obtain (possibly partially unknown) tuples
/// from the sources.
std::vector<datalog::Rule> MakeInverseRules(const datalog::Catalog& catalog);

/// The buckets induced by the inverse rules: a source belongs to subgoal g's
/// bucket iff one of its inverse rules derives g's predicate and its head
/// unifies with g. As Section 7 notes, for conjunctive queries these buckets
/// slot directly into the plan-ordering algorithms.
StatusOr<BucketResult> BucketsFromInverseRules(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog);

/// Answers `query` bottom-up: evaluates the inverse rules plus the query rule
/// over the source facts in `source_facts` (facts over source relation
/// names), then drops answers containing Skolem terms. Equals the union of
/// the answers of all sound plans — the cross-check used by the tests.
StatusOr<std::vector<std::vector<datalog::Term>>> AnswerWithInverseRules(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& source_facts);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFERENCE_INVERSE_RULES_H_
