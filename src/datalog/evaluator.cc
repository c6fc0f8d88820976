#include "datalog/evaluator.h"

#include <functional>
#include <set>

#include "base/logging.h"
#include "datalog/builtins.h"
#include "datalog/unify.h"

namespace planorder::datalog {
namespace {

const std::vector<std::vector<Term>> kNoTuples;

/// Enumerates all substitutions that map `body` into facts, calling `emit`
/// for each complete match. Interpreted comparison atoms evaluate as filters
/// (their variables must be bound by the time they are reached; the caller
/// orders the body to guarantee it).
Status JoinBody(const std::vector<Atom>& body, const Database& db,
                size_t index, Substitution& subst,
                const std::function<void(const Substitution&)>& emit) {
  if (index == body.size()) {
    emit(subst);
    return OkStatus();
  }
  const Atom& atom = body[index];
  if (IsComparisonAtom(atom)) {
    const Atom resolved = ApplySubstitution(atom, subst);
    if (!resolved.IsGround()) {
      return InternalError("comparison reached before its variables bound: " +
                           atom.ToString());
    }
    PLANORDER_ASSIGN_OR_RETURN(bool holds, EvaluateComparison(resolved));
    if (!holds) return OkStatus();
    return JoinBody(body, db, index + 1, subst, emit);
  }
  for (const std::vector<Term>& tuple : db.TuplesFor(atom.predicate)) {
    Substitution attempt = subst;
    bool matched = true;
    if (tuple.size() != atom.args.size()) continue;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (!MatchTerm(atom.args[i], tuple[i], attempt)) {
        matched = false;
        break;
      }
    }
    if (matched) {
      PLANORDER_RETURN_IF_ERROR(JoinBody(body, db, index + 1, attempt, emit));
    }
  }
  return OkStatus();
}

/// Greedy join ordering: repeatedly pick the atom with the most arguments
/// already bound (constants or variables bound by earlier atoms), breaking
/// ties toward fewer free variables and then original position. Pure
/// reordering — conjunction is commutative — but turns cross products into
/// index-friendly nested joins.
std::vector<Atom> OrderBodyForJoin(const std::vector<Atom>& body) {
  std::vector<Atom> ordered;
  ordered.reserve(body.size());
  std::set<std::string> bound;
  std::vector<bool> used(body.size(), false);
  for (size_t step = 0; step < body.size(); ++step) {
    int best = -1;
    int best_bound = -1;
    int best_free = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      std::set<std::string> vars;
      body[i].CollectVariables(vars);
      int bound_count = static_cast<int>(body[i].args.size() - vars.size());
      int free_count = 0;
      for (const std::string& v : vars) {
        if (bound.contains(v)) {
          ++bound_count;
        } else {
          ++free_count;
        }
      }
      // Comparisons are filters: only eligible once fully bound (safety
      // guarantees a relational atom is always available otherwise), and
      // then they run first.
      if (IsComparisonAtom(body[i])) {
        if (free_count > 0) continue;
        best = static_cast<int>(i);
        break;
      }
      if (best < 0 || bound_count > best_bound ||
          (bound_count == best_bound && free_count < best_free)) {
        best = static_cast<int>(i);
        best_bound = bound_count;
        best_free = free_count;
      }
    }
    used[static_cast<size_t>(best)] = true;
    body[static_cast<size_t>(best)].CollectVariables(bound);
    ordered.push_back(body[static_cast<size_t>(best)]);
  }
  return ordered;
}

}  // namespace

bool Database::AddFact(const Atom& fact) {
  PLANORDER_CHECK(fact.IsGround()) << "non-ground fact " << fact.ToString();
  PredicateData& pd = data_[fact.predicate];
  auto [it, inserted] = pd.index.insert(fact.args);
  if (inserted) {
    pd.tuples.push_back(fact.args);
    ++size_;
  }
  return inserted;
}

bool Database::Contains(const Atom& fact) const {
  auto it = data_.find(fact.predicate);
  if (it == data_.end()) return false;
  return it->second.index.contains(fact.args);
}

const std::vector<std::vector<Term>>& Database::TuplesFor(
    const std::string& predicate) const {
  auto it = data_.find(predicate);
  if (it == data_.end()) return kNoTuples;
  return it->second.tuples;
}

std::vector<std::string> Database::Predicates() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [pred, unused] : data_) out.push_back(pred);
  return out;
}

StatusOr<std::vector<std::vector<Term>>> EvaluateQuery(
    const ConjunctiveQuery& query, const Database& db) {
  PLANORDER_RETURN_IF_ERROR(query.ValidateSafety());
  std::unordered_set<std::vector<Term>, TermVectorHash> seen;
  std::vector<std::vector<Term>> results;
  Substitution subst;
  Status status = OkStatus();
  const std::vector<Atom> body = OrderBodyForJoin(query.body);
  PLANORDER_RETURN_IF_ERROR(
      JoinBody(body, db, 0, subst, [&](const Substitution& complete) {
        Atom head = ApplySubstitution(query.head, complete);
        if (!head.IsGround()) {
          status = InternalError("head not ground after safe-rule join: " +
                                 head.ToString());
          return;
        }
        if (seen.insert(head.args).second) {
          results.push_back(std::move(head.args));
        }
      }));
  PLANORDER_RETURN_IF_ERROR(status);
  return results;
}

}  // namespace planorder::datalog
