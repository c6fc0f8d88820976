#ifndef PLANORDER_DATALOG_EVALUATOR_H_
#define PLANORDER_DATALOG_EVALUATOR_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"

namespace planorder::datalog {

/// A set of ground facts, grouped by predicate: the extensional database
/// (source instances), and the output of program evaluation
/// (reference/evaluate_program.h).
class Database {
 public:
  /// Adds a ground fact; duplicate insertions are ignored. Returns true if
  /// the fact was new. Non-ground atoms are a programming error (checked).
  bool AddFact(const Atom& fact);

  bool Contains(const Atom& fact) const;

  /// All tuples of `predicate` (empty when unknown).
  const std::vector<std::vector<Term>>& TuplesFor(
      const std::string& predicate) const;

  /// Total number of facts across all predicates.
  size_t size() const { return size_; }

  std::vector<std::string> Predicates() const;

 private:
  struct PredicateData {
    std::vector<std::vector<Term>> tuples;
    std::unordered_set<std::vector<Term>, TermVectorHash> index;
  };

  std::unordered_map<std::string, PredicateData> data_;
  size_t size_ = 0;
};

/// Evaluates a single conjunctive query against `db` by backtracking joins
/// over its body, returning the distinct head instantiations. Fails when the
/// query is unsafe (a head variable never bound).
StatusOr<std::vector<std::vector<Term>>> EvaluateQuery(
    const ConjunctiveQuery& query, const Database& db);

}  // namespace planorder::datalog

#endif  // PLANORDER_DATALOG_EVALUATOR_H_
