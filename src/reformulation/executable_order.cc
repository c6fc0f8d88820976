#include "reformulation/executable_order.h"

#include <optional>
#include <set>
#include <string>
#include <utility>

#include "datalog/builtins.h"

namespace planorder::reformulation {

using datalog::Atom;
using datalog::Term;

StatusOr<QueryPlan> FindExecutableOrder(const QueryPlan& plan,
                                        const datalog::Catalog& catalog) {
  // Pair every relational atom with its source id; comparisons carry -1.
  struct Entry {
    const Atom* atom;
    datalog::SourceId source;  // -1 for comparisons
  };
  std::vector<Entry> entries;
  size_t next_source = 0;
  for (const Atom& atom : plan.rewriting.body) {
    if (datalog::IsComparisonAtom(atom)) {
      entries.push_back({&atom, -1});
      continue;
    }
    if (next_source >= plan.sources.size()) {
      return InvalidArgumentError("plan body and source list must align");
    }
    entries.push_back({&atom, plan.sources[next_source++]});
  }
  if (next_source != plan.sources.size()) {
    return InvalidArgumentError("plan body and source list must align");
  }

  std::set<std::string> bound;
  std::vector<bool> placed(entries.size(), false);
  QueryPlan ordered;
  ordered.rewriting.head = plan.rewriting.head;

  auto is_bound = [&](const Term& term) {
    if (term.is_constant()) return true;
    return term.is_variable() && bound.contains(term.name());
  };

  for (size_t step = 0; step < entries.size(); ++step) {
    // Bound comparisons run first (free filtering), then the first
    // executable source atom.
    int pick = -1;
    for (size_t i = 0; i < entries.size() && pick < 0; ++i) {
      if (placed[i] || entries[i].source >= 0) continue;
      bool ready = true;
      for (const Term& arg : entries[i].atom->args) {
        if (!is_bound(arg)) ready = false;
      }
      if (ready) pick = static_cast<int>(i);
    }
    for (size_t i = 0; i < entries.size() && pick < 0; ++i) {
      if (placed[i] || entries[i].source < 0) continue;
      const datalog::SourceDescription& source =
          catalog.source(entries[i].source);
      bool ready = true;
      for (size_t pos = 0; pos < entries[i].atom->args.size(); ++pos) {
        if (source.RequiresBound(pos) &&
            !is_bound(entries[i].atom->args[pos])) {
          ready = false;
          break;
        }
      }
      if (ready) pick = static_cast<int>(i);
    }
    if (pick < 0) {
      return FailedPreconditionError(
          "no executable order: every remaining source requires a binding "
          "no placed atom produces (plan " +
          plan.rewriting.ToString() + ")");
    }
    placed[static_cast<size_t>(pick)] = true;
    const Entry& chosen = entries[static_cast<size_t>(pick)];
    ordered.rewriting.body.push_back(*chosen.atom);
    if (chosen.source >= 0) ordered.sources.push_back(chosen.source);
    std::set<std::string> vars;
    chosen.atom->CollectVariables(vars);
    bound.insert(vars.begin(), vars.end());
  }
  return ordered;
}

StatusOr<ResolvedPlan> ResolvePlan(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const std::vector<std::vector<datalog::SourceId>>& source_ids,
    const std::vector<int>& bucket_plan) {
  if (bucket_plan.size() != source_ids.size()) {
    return InvalidArgumentError("plan and source buckets must align");
  }
  std::vector<datalog::SourceId> choice(bucket_plan.size());
  for (size_t b = 0; b < bucket_plan.size(); ++b) {
    if (bucket_plan[b] < 0 ||
        static_cast<size_t>(bucket_plan[b]) >= source_ids[b].size()) {
      return InvalidArgumentError("plan index out of its source bucket");
    }
    choice[b] = source_ids[b][static_cast<size_t>(bucket_plan[b])];
  }
  PLANORDER_ASSIGN_OR_RETURN(std::optional<QueryPlan> sound,
                             BuildSoundPlan(query, catalog, choice));
  if (!sound.has_value()) return ResolvedPlan{PlanVerdict::kUnsound, {}};
  StatusOr<QueryPlan> ordered = FindExecutableOrder(*sound, catalog);
  if (ordered.ok()) {
    return ResolvedPlan{PlanVerdict::kUsable, std::move(*ordered)};
  }
  if (ordered.status().code() != StatusCode::kFailedPrecondition) {
    return ordered.status();
  }
  return ResolvedPlan{PlanVerdict::kNotExecutable, {}};
}

}  // namespace planorder::reformulation
