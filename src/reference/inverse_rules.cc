#include "reference/inverse_rules.h"

#include <set>
#include <string>

#include "datalog/builtins.h"
#include "datalog/unify.h"
#include "reference/evaluate_program.h"

namespace planorder::reformulation {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Rule;
using datalog::Substitution;
using datalog::Term;

namespace {

/// Maps each existential variable Z of `view` to the Skolem term
/// f_<source>_<Z> over the view's head arguments.
Substitution Skolemize(const std::string& source,
                       const ConjunctiveQuery& view) {
  Substitution skolemize;
  for (const std::string& var : view.ExistentialVariables()) {
    skolemize[var] = Term::Function("f_" + source + "_" + var, view.head.args);
  }
  return skolemize;
}

}  // namespace

std::vector<Rule> MakeInverseRules(const datalog::Catalog& catalog) {
  std::vector<Rule> rules;
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    const datalog::SourceDescription& source = catalog.source(id);
    const ConjunctiveQuery& view = source.view;
    const Substitution skolemize = Skolemize(source.name, view);
    for (const Atom& atom : view.body) {
      // Comparison constraints of a view are not invertible: the source's
      // tuples already satisfy them, and they derive no schema facts.
      if (datalog::IsComparisonAtom(atom)) continue;
      Rule rule;
      rule.head = datalog::ApplySubstitution(atom, skolemize);
      rule.body.push_back(view.head);
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

StatusOr<BucketResult> BucketsFromInverseRules(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog) {
  PLANORDER_RETURN_IF_ERROR(query.ValidateSafety());
  BucketResult result;
  size_t relational_goals = 0;
  for (const Atom& goal : query.body) {
    if (!datalog::IsComparisonAtom(goal)) ++relational_goals;
  }
  result.buckets.resize(relational_goals);
  const std::set<std::string> distinguished = query.HeadVariables();
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    const datalog::SourceDescription& source = catalog.source(id);
    const ConjunctiveQuery view = source.view.RenameVariables("_ir");
    const Substitution skolemize = Skolemize(source.name, view);
    size_t g = 0;
    for (const Atom& goal : query.body) {
      if (datalog::IsComparisonAtom(goal)) continue;
      const size_t bucket_index = g++;
      bool relevant = false;
      for (const Atom& atom : view.body) {
        if (datalog::IsComparisonAtom(atom)) continue;
        if (atom.predicate != goal.predicate ||
            atom.args.size() != goal.args.size()) {
          continue;
        }
        const Atom rule_head = datalog::ApplySubstitution(atom, skolemize);
        Substitution subst;
        if (!datalog::UnifyAtoms(goal, rule_head, subst)) continue;
        // Distinguished query variables must not be answered by a Skolem
        // term (the value would be fictional, not retrievable).
        bool ok = true;
        for (const Term& arg : goal.args) {
          if (!arg.is_variable() || !distinguished.contains(arg.name())) {
            continue;
          }
          if (datalog::ApplySubstitution(arg, subst).is_function()) {
            ok = false;
            break;
          }
        }
        if (ok) {
          relevant = true;
          break;
        }
      }
      if (relevant) result.buckets[bucket_index].push_back(id);
    }
  }
  return result;
}

StatusOr<std::vector<std::vector<Term>>> AnswerWithInverseRules(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& source_facts) {
  std::vector<Rule> program = MakeInverseRules(catalog);
  PLANORDER_ASSIGN_OR_RETURN(
      datalog::Database all,
      datalog::EvaluateProgram(program, source_facts));
  PLANORDER_ASSIGN_OR_RETURN(std::vector<std::vector<Term>> raw,
                             datalog::EvaluateQuery(query, all));
  std::vector<std::vector<Term>> answers;
  for (std::vector<Term>& tuple : raw) {
    bool has_skolem = false;
    for (const Term& t : tuple) {
      if (t.is_function()) {
        has_skolem = true;
        break;
      }
    }
    if (!has_skolem) answers.push_back(std::move(tuple));
  }
  return answers;
}

}  // namespace planorder::reformulation
