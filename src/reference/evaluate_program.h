#ifndef PLANORDER_REFERENCE_EVALUATE_PROGRAM_H_
#define PLANORDER_REFERENCE_EVALUATE_PROGRAM_H_

#include <cstddef>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "datalog/evaluator.h"

namespace planorder::datalog {

/// Options for bottom-up datalog evaluation.
struct EvaluateOptions {
  /// Round cap: Skolem function terms (from inverse rules) can make a
  /// genuinely recursive program diverge; evaluation errors out beyond this
  /// many rounds.
  int max_iterations = 10'000;
  /// Fact cap, as a second safety net against term-depth blowup.
  size_t max_facts = 10'000'000;
};

/// Naive bottom-up evaluation of `rules` over the extensional database
/// `edb`: each round evaluates every rule with EvaluateQuery over the facts
/// so far and adds what it derives, until a round adds nothing. Returns a
/// database containing the EDB facts plus everything derived. Rules may
/// produce facts with Skolem function terms; the paper's framework (and
/// ours) does not handle recursive plans, so divergent recursion hits the
/// caps and errors with kOutOfRange. A reference for the inverse-rule
/// algorithm; no production path evaluates programs.
StatusOr<Database> EvaluateProgram(const std::vector<Rule>& rules,
                                   const Database& edb,
                                   const EvaluateOptions& options = {});

}  // namespace planorder::datalog

#endif  // PLANORDER_REFERENCE_EVALUATE_PROGRAM_H_
