#include "reference/evaluate_program.h"

#include <utility>

namespace planorder::datalog {

StatusOr<Database> EvaluateProgram(const std::vector<Rule>& rules,
                                   const Database& edb,
                                   const EvaluateOptions& options) {
  Database db = edb;
  for (int round = 0; round < options.max_iterations; ++round) {
    bool added = false;
    for (const Rule& rule : rules) {
      PLANORDER_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> heads,
                                 EvaluateQuery(rule, db));
      for (std::vector<Term>& args : heads) {
        added |= db.AddFact(Atom(rule.head.predicate, std::move(args)));
      }
    }
    if (!added) return db;
    if (db.size() > options.max_facts) {
      return Status(StatusCode::kOutOfRange,
                    "datalog evaluation exceeded max_facts; the program is "
                    "likely recursive through Skolem terms");
    }
  }
  return Status(StatusCode::kOutOfRange,
                "datalog evaluation did not reach a fixpoint within "
                "max_iterations; the program is likely recursive through "
                "Skolem terms");
}

}  // namespace planorder::datalog
