#ifndef PLANORDER_DATALOG_BUILTINS_H_
#define PLANORDER_DATALOG_BUILTINS_H_

#include <optional>
#include <string>

#include "base/status.h"
#include "datalog/atom.h"

namespace planorder::datalog {

/// Interpreted comparison predicates over numeric constants:
///   lt(X, Y)  X <  Y        gt(X, Y)  X >  Y
///   le(X, Y)  X <= Y        ge(X, Y)  X >= Y
///   neq(X, Y) X != Y
/// They may appear in query and view bodies (never as subgoals served by
/// sources). Safety requires every variable of a comparison to also occur
/// in a relational atom. Comparisons evaluate over constants that parse as
/// decimal numbers; comparing a non-numeric constant is an evaluation error.
///
/// Scope note: the plan-ordering paper works with pure conjunctive queries;
/// comparisons are the classic extension of its plan-generation substrate
/// (the bucket algorithm of Levy-Rajaraman-Ordille handles them). Supported
/// here in the evaluator, the dependent-join executor and the bucket
/// algorithm, and by the inverse-rule reference (src/reference/); the
/// MiniCon reference remains pure-conjunctive and rejects them.

/// True for lt/le/gt/ge/neq with exactly two arguments.
bool IsComparisonAtom(const Atom& atom);

/// True when `name` is one of the comparison predicate names (any arity).
bool IsComparisonPredicate(const std::string& name);

/// Numeric value of a constant term, or nullopt when it is not a ground
/// numeric constant.
std::optional<double> NumericValue(const Term& term);

/// Evaluates a GROUND comparison atom. Errors when an argument is not a
/// numeric constant.
StatusOr<bool> EvaluateComparison(const Atom& atom);

}  // namespace planorder::datalog

#endif  // PLANORDER_DATALOG_BUILTINS_H_
