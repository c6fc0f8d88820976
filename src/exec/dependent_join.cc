#include "exec/dependent_join.h"

#include <unordered_set>

#include "datalog/builtins.h"
#include "datalog/unify.h"

namespace planorder::exec {

using datalog::Atom;
using datalog::Substitution;
using datalog::Term;

int64_t ExecutionTrace::TotalCalls() const {
  int64_t total = 0;
  for (const AtomAccess& a : atoms) total += a.calls;
  return total;
}

int64_t ExecutionTrace::TotalTuplesShipped() const {
  int64_t total = 0;
  for (const AtomAccess& a : atoms) total += a.tuples_shipped;
  return total;
}

double ExecutionTrace::ModeledCost(
    double access_overhead, const std::vector<double>& alpha_per_atom) const {
  double cost = 0.0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    const double alpha = i < alpha_per_atom.size() ? alpha_per_atom[i] : 0.0;
    cost += double(atoms[i].calls) * access_overhead +
            double(atoms[i].tuples_shipped) * alpha;
  }
  return cost;
}

namespace {

/// One plain FetchBatch call per batch against the registry's sources.
class RegistryFetcher : public BatchFetcher {
 public:
  explicit RegistryFetcher(SourceRegistry& sources) : sources_(sources) {}

  const AccessibleSource* Find(const std::string& predicate) const override {
    return sources_.Find(predicate);
  }

  StatusOr<std::vector<std::vector<Term>>> Fetch(const std::string& predicate,
                                                 const BindingBatch& batch,
                                                 int64_t* calls) override {
    *calls = 1;
    return sources_.Find(predicate)->FetchBatch(batch);
  }

 private:
  SourceRegistry& sources_;
};

}  // namespace

StatusOr<std::vector<std::vector<Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, SourceRegistry& sources,
    ExecutionTrace* trace) {
  RegistryFetcher fetcher(sources);
  return ExecutePlanDependent(rewriting, fetcher, trace);
}

StatusOr<std::vector<std::vector<Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, BatchFetcher& sources,
    ExecutionTrace* trace) {
  PLANORDER_RETURN_IF_ERROR(rewriting.ValidateSafety());
  for (const Atom& atom : rewriting.body) {
    if (datalog::IsComparisonAtom(atom)) continue;
    const AccessibleSource* source = sources.Find(atom.predicate);
    if (source == nullptr) {
      return NotFoundError("no source registered for '" + atom.predicate +
                           "'");
    }
    if (source->arity() != atom.arity()) {
      return InvalidArgumentError("arity mismatch for '" + atom.predicate +
                                  "'");
    }
    for (const Term& arg : atom.args) {
      if (arg.is_function()) {
        return InvalidArgumentError(
            "function terms cannot be executed against sources");
      }
    }
  }
  if (trace != nullptr) trace->atoms.clear();

  // Partial bindings flowing left to right.
  std::vector<Substitution> frontier = {Substitution{}};
  for (const Atom& atom : rewriting.body) {
    if (datalog::IsComparisonAtom(atom)) {
      // Filter the frontier locally; no source contact.
      std::vector<Substitution> kept;
      for (const Substitution& partial : frontier) {
        const Atom resolved = datalog::ApplySubstitution(atom, partial);
        if (!resolved.IsGround()) {
          return InvalidArgumentError(
              "comparison over unbound variables in execution order: " +
              atom.ToString());
        }
        PLANORDER_ASSIGN_OR_RETURN(bool holds,
                                   datalog::EvaluateComparison(resolved));
        if (holds) kept.push_back(partial);
      }
      frontier = std::move(kept);
      if (trace != nullptr) {
        AtomAccess filter;
        filter.source = atom.predicate;
        trace->atoms.push_back(std::move(filter));
      }
      if (frontier.empty()) break;
      continue;
    }
    const AccessibleSource& source = *sources.Find(atom.predicate);

    // Collect the distinct binding combinations the frontier sends to the
    // source and ship them as ONE batch — the semi-join of measure (2): h is
    // paid per source call, alpha per tuple of the joined result. Every
    // partial binds the same prefix variables, so the bound positions (the
    // constants and prefix-bound variables) are fixed per atom.
    std::vector<int> positions;
    for (size_t pos = 0; pos < atom.args.size(); ++pos) {
      if (datalog::ApplySubstitution(atom.args[pos], frontier.front())
              .IsGround()) {
        positions.push_back(static_cast<int>(pos));
      }
    }
    BindingBatch batch(std::move(positions));
    for (const Substitution& partial : frontier) {
      std::vector<Term> values;
      values.reserve(batch.positions().size());
      for (int pos : batch.positions()) {
        values.push_back(datalog::ApplySubstitution(
            atom.args[static_cast<size_t>(pos)], partial));
      }
      batch.Add(std::move(values));
    }

    AtomAccess access;
    access.source = atom.predicate;
    PLANORDER_RETURN_IF_ERROR(source.ValidateBindings(batch.positions()));
    PLANORDER_ASSIGN_OR_RETURN(
        std::vector<std::vector<Term>> rows,
        sources.Fetch(atom.predicate, batch, &access.calls));
    access.tuples_shipped = static_cast<int64_t>(rows.size());
    if (trace != nullptr) trace->atoms.push_back(std::move(access));

    std::vector<Substitution> next;
    for (const Substitution& partial : frontier) {
      for (const auto& row : rows) {
        Substitution extended = partial;
        bool ok = true;
        for (size_t pos = 0; pos < atom.args.size() && ok; ++pos) {
          ok = datalog::MatchTerm(atom.args[pos], row[pos], extended);
        }
        if (ok) next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  // Dedup guard only: answers keep the deterministic frontier order.
  // detlint: order-insensitive(membership-only dedup; never iterated)
  std::unordered_set<std::vector<Term>, datalog::TermVectorHash> seen;
  std::vector<std::vector<Term>> answers;
  for (const Substitution& subst : frontier) {
    Atom head = datalog::ApplySubstitution(rewriting.head, subst);
    if (!head.IsGround()) {
      return InternalError("unbound head after safe execution");
    }
    if (seen.insert(head.args).second) answers.push_back(std::move(head.args));
  }
  // Keep trace length equal to the body even when the frontier drained.
  if (trace != nullptr) {
    while (trace->atoms.size() < rewriting.body.size()) {
      AtomAccess empty;
      empty.source = rewriting.body[trace->atoms.size()].predicate;
      trace->atoms.push_back(std::move(empty));
    }
  }
  return answers;
}

}  // namespace planorder::exec
