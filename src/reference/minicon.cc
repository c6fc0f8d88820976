#include "reference/minicon.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "base/logging.h"
#include "datalog/builtins.h"

namespace planorder::reformulation {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Substitution;
using datalog::Term;

namespace {

/// True when variables `a` and `b` denote the same thing under `subst`.
bool Identified(const std::string& a, const std::string& b,
                const Substitution& subst) {
  return datalog::ApplySubstitution(Term::Variable(a), subst) ==
         datalog::ApplySubstitution(Term::Variable(b), subst);
}

/// The set of query variables occurring in the covered subgoals.
std::set<std::string> CoveredVariables(const ConjunctiveQuery& query,
                                       uint64_t covered) {
  std::set<std::string> vars;
  for (size_t g = 0; g < query.body.size(); ++g) {
    if (covered & (uint64_t{1} << g)) query.body[g].CollectVariables(vars);
  }
  return vars;
}

/// Builds MCDs for one source by closing the C2 property with backtracking
/// over view-atom choices.
class McdBuilder {
 public:
  McdBuilder(const ConjunctiveQuery& query, datalog::SourceId source,
             ConjunctiveQuery renamed_view, std::vector<Mcd>* out,
             std::set<std::string>* dedupe)
      : query_(query),
        source_(source),
        view_(std::move(renamed_view)),
        query_distinguished_(query.HeadVariables()),
        view_existential_(view_.ExistentialVariables()),
        out_(out),
        dedupe_(dedupe) {}

  void Run() {
    for (size_t g = 0; g < query_.body.size(); ++g) {
      for (const Atom& atom : view_.body) {
        Substitution subst;
        if (atom.predicate != query_.body[g].predicate ||
            atom.args.size() != query_.body[g].args.size()) {
          continue;
        }
        if (!datalog::UnifyAtoms(query_.body[g], atom, subst)) continue;
        Close(uint64_t{1} << g, subst);
      }
    }
  }

 private:
  /// True when query variable `x` is identified with an existential view
  /// variable.
  bool MapsToViewExistential(const std::string& x,
                             const Substitution& subst) const {
    for (const std::string& e : view_existential_) {
      if (Identified(x, e, subst)) return true;
    }
    return false;
  }

  void Close(uint64_t covered, const Substitution& subst) {
    // Find a C2 violation: a query variable identified with an existential
    // view variable but occurring in an uncovered subgoal.
    for (const std::string& x : CoveredVariables(query_, covered)) {
      if (!MapsToViewExistential(x, subst)) continue;
      for (size_t g = 0; g < query_.body.size(); ++g) {
        if (covered & (uint64_t{1} << g)) continue;
        std::set<std::string> goal_vars;
        query_.body[g].CollectVariables(goal_vars);
        if (!goal_vars.contains(x)) continue;
        // Subgoal g must join the MCD; try every compatible view atom.
        for (const Atom& atom : view_.body) {
          if (atom.predicate != query_.body[g].predicate ||
              atom.args.size() != query_.body[g].args.size()) {
            continue;
          }
          Substitution attempt = subst;
          if (!datalog::UnifyAtoms(query_.body[g], atom, attempt)) continue;
          Close(covered | (uint64_t{1} << g), attempt);
        }
        return;  // all completions of this violation explored
      }
    }
    // No violation: check C1 (distinguished query variables must be
    // retrievable, i.e. not identified with existential view variables).
    for (const std::string& x : CoveredVariables(query_, covered)) {
      if (query_distinguished_.contains(x) &&
          MapsToViewExistential(x, subst)) {
        return;
      }
    }
    Emit(covered, subst);
  }

  void Emit(uint64_t covered, const Substitution& subst) {
    std::string key = std::to_string(source_) + "#" + std::to_string(covered);
    for (const std::string& x : CoveredVariables(query_, covered)) {
      key += "|" + x + "=" +
             datalog::ApplySubstitution(Term::Variable(x), subst).ToString();
    }
    if (!dedupe_->insert(key).second) return;
    Mcd mcd;
    mcd.source = source_;
    mcd.subgoals = covered;
    mcd.mapping = subst;
    mcd.renamed_view = view_;
    out_->push_back(std::move(mcd));
  }

  const ConjunctiveQuery& query_;
  datalog::SourceId source_;
  ConjunctiveQuery view_;
  std::set<std::string> query_distinguished_;
  std::set<std::string> view_existential_;
  std::vector<Mcd>* out_;
  std::set<std::string>* dedupe_;
};

/// Union-find over query variable names used when merging MCD mappings.
class VarUnion {
 public:
  std::string Find(const std::string& x) {
    auto it = parent_.find(x);
    if (it == parent_.end() || it->second == x) return x;
    const std::string root = Find(it->second);
    parent_[x] = root;
    return root;
  }
  void Unite(const std::string& a, const std::string& b) {
    const std::string ra = Find(a);
    const std::string rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }

 private:
  std::map<std::string, std::string> parent_;
};

}  // namespace

StatusOr<std::vector<Mcd>> FormMcds(const ConjunctiveQuery& query,
                                    const datalog::Catalog& catalog) {
  PLANORDER_RETURN_IF_ERROR(query.ValidateSafety());
  if (query.body.size() > 64) {
    return InvalidArgumentError("queries of more than 64 subgoals unsupported");
  }
  for (const Atom& atom : query.body) {
    if (datalog::IsComparisonAtom(atom)) {
      return UnimplementedError(
          "the MiniCon module handles pure conjunctive queries; interpreted "
          "comparisons are supported by the bucket algorithm path");
    }
  }
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    for (const Atom& atom : catalog.source(id).view.body) {
      if (datalog::IsComparisonAtom(atom)) {
        return UnimplementedError(
            "the MiniCon module handles pure conjunctive views; interpreted "
            "comparisons are supported by the bucket algorithm path");
      }
    }
  }
  std::vector<Mcd> mcds;
  std::set<std::string> dedupe;
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    McdBuilder builder(query, id,
                       catalog.source(id).view.RenameVariables(
                           "_m" + std::to_string(id)),
                       &mcds, &dedupe);
    builder.Run();
  }
  return mcds;
}

std::vector<GeneralizedBucket> GroupMcds(const std::vector<Mcd>& mcds) {
  std::map<uint64_t, GeneralizedBucket> by_subgoals;
  for (size_t i = 0; i < mcds.size(); ++i) {
    GeneralizedBucket& bucket = by_subgoals[mcds[i].subgoals];
    bucket.subgoals = mcds[i].subgoals;
    bucket.mcd_indices.push_back(static_cast<int>(i));
  }
  std::vector<GeneralizedBucket> out;
  out.reserve(by_subgoals.size());
  for (auto& [unused, bucket] : by_subgoals) out.push_back(std::move(bucket));
  return out;
}

std::vector<McdPlanSpace> BuildMcdPlanSpaces(
    const ConjunctiveQuery& query,
    const std::vector<GeneralizedBucket>& buckets) {
  const uint64_t all = query.body.empty()
                           ? 0
                           : (query.body.size() == 64
                                  ? ~uint64_t{0}
                                  : (uint64_t{1} << query.body.size()) - 1);
  std::vector<McdPlanSpace> spaces;
  std::vector<int> current;
  // Partition the subgoals: always extend with a bucket covering the lowest
  // uncovered subgoal, so each partition is enumerated exactly once.
  std::function<void(uint64_t)> dfs = [&](uint64_t covered) {
    if (covered == all) {
      spaces.push_back(McdPlanSpace{current});
      return;
    }
    const int lowest = __builtin_ctzll(~covered);
    for (size_t i = 0; i < buckets.size(); ++i) {
      const uint64_t s = buckets[i].subgoals;
      if ((s & (uint64_t{1} << lowest)) == 0) continue;
      if ((s & covered) != 0) continue;
      current.push_back(static_cast<int>(i));
      dfs(covered | s);
      current.pop_back();
    }
  };
  dfs(0);
  return spaces;
}

StatusOr<QueryPlan> CombineMcds(const ConjunctiveQuery& query,
                                const datalog::Catalog& catalog,
                                const std::vector<const Mcd*>& combination) {
  uint64_t covered = 0;
  for (const Mcd* mcd : combination) {
    if ((covered & mcd->subgoals) != 0) {
      return InvalidArgumentError("MCD subgoal sets must be disjoint");
    }
    covered |= mcd->subgoals;
  }
  const uint64_t all = query.body.size() == 64
                           ? ~uint64_t{0}
                           : (uint64_t{1} << query.body.size()) - 1;
  if (covered != all) {
    return InvalidArgumentError("MCDs must cover every subgoal");
  }

  // Per MCD: map each view-variable equivalence class back to a query
  // variable (or constant); query variables sharing a class are equated.
  VarUnion unite;
  struct PendingAtom {
    Atom atom;
    datalog::SourceId source;
  };
  std::vector<PendingAtom> atoms;
  std::map<std::string, Term> pinned;  // query var root -> constant

  for (size_t mi = 0; mi < combination.size(); ++mi) {
    const Mcd& mcd = *combination[mi];
    // Representative query variable (or constant) per resolved view term.
    std::map<std::string, std::string> rep_to_var;
    for (const std::string& x : CoveredVariables(query, mcd.subgoals)) {
      const Term resolved =
          datalog::ApplySubstitution(Term::Variable(x), mcd.mapping);
      if (resolved.is_constant()) {
        pinned[unite.Find(x)] = resolved;
        continue;
      }
      const std::string key = resolved.ToString();
      auto [it, inserted] = rep_to_var.emplace(key, x);
      if (!inserted) unite.Unite(x, it->second);
    }
    Atom plan_atom;
    plan_atom.predicate = catalog.source(mcd.source).name;
    for (size_t pos = 0; pos < mcd.renamed_view.head.args.size(); ++pos) {
      const Term resolved = datalog::ApplySubstitution(
          mcd.renamed_view.head.args[pos], mcd.mapping);
      if (resolved.is_constant()) {
        plan_atom.args.push_back(resolved);
        continue;
      }
      auto it = rep_to_var.find(resolved.ToString());
      if (it != rep_to_var.end()) {
        plan_atom.args.push_back(Term::Variable(it->second));
      } else {
        // A head position no query variable cares about: fresh variable.
        plan_atom.args.push_back(Term::Variable(
            "FV_" + std::to_string(mi) + "_" + std::to_string(pos)));
      }
    }
    atoms.push_back(PendingAtom{std::move(plan_atom), mcd.source});
  }

  // Apply the accumulated equalities and constant pins.
  auto canonical = [&](const Term& t) -> Term {
    if (!t.is_variable()) return t;
    const std::string root = unite.Find(t.name());
    auto it = pinned.find(root);
    if (it != pinned.end()) return it->second;
    return Term::Variable(root);
  };

  QueryPlan plan;
  plan.rewriting.head.predicate = query.head.predicate;
  for (const Term& t : query.head.args) {
    plan.rewriting.head.args.push_back(canonical(t));
  }
  for (PendingAtom& pending : atoms) {
    Atom atom;
    atom.predicate = pending.atom.predicate;
    for (const Term& t : pending.atom.args) atom.args.push_back(canonical(t));
    plan.rewriting.body.push_back(std::move(atom));
    plan.sources.push_back(pending.source);
  }
  PLANORDER_RETURN_IF_ERROR(plan.rewriting.ValidateSafety());
  PLANORDER_ASSIGN_OR_RETURN(bool sound, IsSound(plan, query, catalog));
  if (!sound) {
    return InternalError("MiniCon produced an unsound rewriting: " +
                         plan.rewriting.ToString());
  }
  return plan;
}

StatusOr<std::vector<QueryPlan>> EnumerateMiniConPlans(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog) {
  PLANORDER_ASSIGN_OR_RETURN(std::vector<Mcd> mcds, FormMcds(query, catalog));
  const std::vector<GeneralizedBucket> buckets = GroupMcds(mcds);
  const std::vector<McdPlanSpace> spaces = BuildMcdPlanSpaces(query, buckets);
  std::vector<QueryPlan> plans;
  for (const McdPlanSpace& space : spaces) {
    std::vector<size_t> cursor(space.bucket_indices.size(), 0);
    if (space.bucket_indices.empty()) continue;
    while (true) {
      std::vector<const Mcd*> combo;
      combo.reserve(space.bucket_indices.size());
      for (size_t b = 0; b < space.bucket_indices.size(); ++b) {
        const GeneralizedBucket& bucket = buckets[space.bucket_indices[b]];
        combo.push_back(&mcds[bucket.mcd_indices[cursor[b]]]);
      }
      PLANORDER_ASSIGN_OR_RETURN(QueryPlan plan,
                                 CombineMcds(query, catalog, combo));
      plans.push_back(std::move(plan));
      size_t b = 0;
      for (; b < space.bucket_indices.size(); ++b) {
        if (++cursor[b] <
            buckets[space.bucket_indices[b]].mcd_indices.size()) {
          break;
        }
        cursor[b] = 0;
      }
      if (b == space.bucket_indices.size()) break;
    }
  }
  return plans;
}

}  // namespace planorder::reformulation
