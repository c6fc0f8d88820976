#include "reformulation/rewriting.h"

#include <string>

#include "datalog/builtins.h"
#include "datalog/containment.h"
#include "datalog/unify.h"

namespace planorder::reformulation {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Substitution;

namespace {

/// Backtracks over, for each subgoal, the view atoms it can unify with,
/// testing each complete assembly for soundness.
struct PlanAssembler {
  const ConjunctiveQuery& query;
  const datalog::Catalog& catalog;
  const std::vector<datalog::SourceId>& choice;
  /// The query's relational subgoals (buckets exist only for these).
  std::vector<const Atom*> goals;
  std::vector<ConjunctiveQuery> renamed_views;  // per subgoal, renamed apart

  std::optional<QueryPlan> result;

  bool Assemble(size_t index, const Substitution& subst,
                std::vector<Atom>& heads) {
    if (index == goals.size()) {
      QueryPlan plan;
      plan.rewriting.head = datalog::ApplySubstitution(query.head, subst);
      for (const Atom& head : heads) {
        plan.rewriting.body.push_back(datalog::ApplySubstitution(head, subst));
      }
      // Interpreted comparisons of the query ride along as filters.
      for (const Atom& atom : query.body) {
        if (datalog::IsComparisonAtom(atom)) {
          plan.rewriting.body.push_back(
              datalog::ApplySubstitution(atom, subst));
        }
      }
      plan.sources = choice;
      if (!plan.rewriting.ValidateSafety().ok()) return false;
      auto expansion = ExpandPlan(plan, catalog);
      if (!expansion.ok()) return false;
      // A plan whose expansion is unsatisfiable (view constraints contradict
      // the query's) is vacuously sound but returns nothing: prune it.
      if (!datalog::IsSatisfiable(*expansion)) return false;
      if (!datalog::IsContainedIn(*expansion, query)) return false;
      result = std::move(plan);
      return true;
    }
    const Atom& goal = *goals[index];
    const ConjunctiveQuery& view = renamed_views[index];
    for (const Atom& atom : view.body) {
      if (atom.predicate != goal.predicate ||
          atom.args.size() != goal.args.size()) {
        continue;
      }
      Substitution attempt = subst;
      if (!datalog::UnifyAtoms(goal, atom, attempt)) continue;
      heads.push_back(view.head);
      if (Assemble(index + 1, attempt, heads)) return true;
      heads.pop_back();
    }
    return false;
  }
};

}  // namespace

StatusOr<std::optional<QueryPlan>> BuildSoundPlan(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const std::vector<datalog::SourceId>& choice) {
  PlanAssembler assembler{query, catalog, choice, {}, {}, std::nullopt};
  for (const Atom& atom : query.body) {
    if (!datalog::IsComparisonAtom(atom)) assembler.goals.push_back(&atom);
  }
  if (choice.size() != assembler.goals.size()) {
    return InvalidArgumentError("one source per relational subgoal required");
  }
  assembler.renamed_views.reserve(choice.size());
  for (size_t i = 0; i < choice.size(); ++i) {
    if (choice[i] < 0 || choice[i] >= catalog.num_sources()) {
      return InvalidArgumentError("unknown source id");
    }
    assembler.renamed_views.push_back(
        catalog.source(choice[i]).view.RenameVariables("_p" +
                                                       std::to_string(i)));
  }
  std::vector<Atom> heads;
  Substitution subst;
  assembler.Assemble(0, subst, heads);
  return assembler.result;
}

StatusOr<ConjunctiveQuery> ExpandPlan(const QueryPlan& plan,
                                      const datalog::Catalog& catalog) {
  // Source atoms align with plan.sources; comparison atoms are filters and
  // copy into the expansion verbatim.
  size_t source_atoms = 0;
  for (const Atom& atom : plan.rewriting.body) {
    if (!datalog::IsComparisonAtom(atom)) ++source_atoms;
  }
  if (source_atoms != plan.sources.size()) {
    return InvalidArgumentError("plan body and source list must align");
  }
  ConjunctiveQuery expansion;
  Substitution subst;
  size_t i = 0;
  for (const Atom& plan_atom : plan.rewriting.body) {
    if (datalog::IsComparisonAtom(plan_atom)) {
      expansion.body.push_back(plan_atom);
      continue;
    }
    const ConjunctiveQuery view =
        catalog.source(plan.sources[i])
            .view.RenameVariables("_e" + std::to_string(i));
    ++i;
    if (!datalog::UnifyAtoms(view.head, plan_atom, subst)) {
      return InternalError("plan atom does not unify with its view head: " +
                           plan_atom.ToString());
    }
    for (const Atom& atom : view.body) expansion.body.push_back(atom);
  }
  expansion.head = plan.rewriting.head;
  // Resolve all accumulated bindings.
  expansion.head = datalog::ApplySubstitution(expansion.head, subst);
  for (Atom& atom : expansion.body) {
    atom = datalog::ApplySubstitution(atom, subst);
  }
  return expansion;
}

StatusOr<bool> IsSound(const QueryPlan& plan, const ConjunctiveQuery& query,
                       const datalog::Catalog& catalog) {
  PLANORDER_ASSIGN_OR_RETURN(ConjunctiveQuery expansion,
                             ExpandPlan(plan, catalog));
  return datalog::IsContainedIn(expansion, query);
}

}  // namespace planorder::reformulation
