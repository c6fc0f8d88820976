#include "reformulation/statistics.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "datalog/builtins.h"
#include "datalog/unify.h"

namespace planorder::reformulation {

using datalog::Atom;
using datalog::ConjunctiveQuery;
using datalog::Substitution;
using datalog::Term;

namespace {

/// The non-derivable per-source statistics every estimated source gets.
constexpr double kTransmissionCost = 0.25;
constexpr double kFailureProb = 0.0;
constexpr double kFee = 1.0;
/// Domain size N_b as a multiple of the largest estimated cardinality.
constexpr double kDomainSizeFactor = 4.0;

/// The distinct bindings source `id` can contribute to `goal`: unify the
/// subgoal with a view atom, project the subgoal's variables through the
/// source head, and evaluate against the instances. Variables the source
/// cannot retrieve (mapped to view existentials) are dropped from the
/// projection — overlap over the retrievable attributes is the conservative
/// choice.
StatusOr<std::vector<std::vector<Term>>> SubgoalBindings(
    const datalog::Catalog& catalog, datalog::SourceId id, const Atom& goal,
    const datalog::Database& source_facts) {
  const ConjunctiveQuery view = catalog.source(id).view.RenameVariables("_s");
  for (const Atom& atom : view.body) {
    if (datalog::IsComparisonAtom(atom)) continue;
    if (atom.predicate != goal.predicate ||
        atom.args.size() != goal.args.size()) {
      continue;
    }
    Substitution subst;
    if (!datalog::UnifyAtoms(goal, atom, subst)) continue;
    const Atom plan_atom = datalog::ApplySubstitution(view.head, subst);
    // Projection over the subgoal variables the plan atom retrieves.
    std::set<std::string> plan_vars;
    plan_atom.CollectVariables(plan_vars);
    ConjunctiveQuery projection;
    projection.head.predicate = "proj";
    std::set<std::string> goal_vars;
    goal.CollectVariables(goal_vars);
    for (const std::string& v : goal_vars) {
      const Term resolved =
          datalog::ApplySubstitution(Term::Variable(v), subst);
      if (resolved.is_variable() && plan_vars.contains(resolved.name())) {
        projection.head.args.push_back(resolved);
      }
    }
    projection.body.push_back(plan_atom);
    if (projection.head.args.empty()) {
      // Fully ground subgoal (all constants): count matching tuples as 0/1.
      return datalog::EvaluateQuery(
          ConjunctiveQuery(Atom("proj", {}), {plan_atom}), source_facts);
    }
    return datalog::EvaluateQuery(projection, source_facts);
  }
  return std::vector<std::vector<Term>>{};
}

/// `term` with every variable renamed to its rank in `rank`, zero-padded so
/// that name order is rank order. The names never end in `_s`, so they
/// cannot collide with the view variables SubgoalBindings renames apart.
Term RankVariables(const Term& term, const std::map<std::string, int>& rank) {
  if (term.is_variable()) {
    std::string name = std::to_string(rank.at(term.name()));
    name.insert(0, 10 - name.size(), '0');
    return Term::Variable(std::move(name));
  }
  if (!term.is_function()) return term;
  std::vector<Term> args;
  args.reserve(term.args().size());
  for (const Term& arg : term.args()) args.push_back(RankVariables(arg, rank));
  return Term::Function(term.name(), std::move(args));
}

/// Approximate resident footprint of one memo entry: the key, the hash
/// array, and node and entry overhead.
size_t EntryBytes(const BindingHashMemo::Key& key,
                  const std::vector<size_t>& hashes) {
  return sizeof(key) + key.second.args.size() * sizeof(Term) +
         16 * sizeof(void*) + hashes.size() * sizeof(size_t);
}

}  // namespace

Atom BindingHashMemo::PatternOf(const Atom& goal) {
  // Rank in sorted-name order: SubgoalBindings lays out its projection
  // columns in that order, and the hashes depend on column order.
  std::set<std::string> names;
  goal.CollectVariables(names);
  std::map<std::string, int> rank;
  for (const std::string& name : names) {
    rank.emplace(name, static_cast<int>(rank.size()));
  }
  Atom pattern;
  pattern.predicate = goal.predicate;
  pattern.args.reserve(goal.args.size());
  for (const Term& arg : goal.args) {
    pattern.args.push_back(RankVariables(arg, rank));
  }
  return pattern;
}

BindingHashMemo::Hashes BindingHashMemo::Lookup(const Key& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.hashes;
}

void BindingHashMemo::Insert(Key key, Hashes hashes) {
  const size_t bytes = EntryBytes(key, *hashes);
  MutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  if (inserted) {
    lru_.push_front(&it->first);
    it->second = Entry{std::move(hashes), bytes, lru_.begin()};
    stats_.bytes += bytes;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  while (stats_.bytes > capacity_bytes_ && !lru_.empty()) {
    auto victim = entries_.find(*lru_.back());
    stats_.bytes -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

BindingHashMemo::Stats BindingHashMemo::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

StatusOr<stats::Workload> EstimateWorkloadFromInstances(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const BucketResult& buckets, const datalog::Database& source_facts,
    const EstimateOptions& options) {
  // A zero-byte memo retains nothing, so every source is scanned: this entry
  // is the fresh estimate the memoized one is checked against.
  BindingHashMemo memo(0);
  return EstimateWorkloadFromInstances(query, catalog, buckets, source_facts,
                                       options, memo);
}

StatusOr<stats::Workload> EstimateWorkloadFromInstances(
    const ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const BucketResult& buckets, const datalog::Database& source_facts,
    const EstimateOptions& options, BindingHashMemo& memo) {
  if (options.regions_per_bucket < 1 || options.regions_per_bucket > 64) {
    return InvalidArgumentError("regions_per_bucket must be in [1, 64]");
  }
  // Relational subgoals, aligned with the buckets.
  std::vector<const Atom*> goals;
  for (const Atom& atom : query.body) {
    if (!datalog::IsComparisonAtom(atom)) goals.push_back(&atom);
  }
  if (goals.size() != buckets.buckets.size()) {
    return InvalidArgumentError("buckets do not match the query's subgoals");
  }

  const datalog::TermVectorHash hasher;
  const int regions = options.regions_per_bucket;
  std::vector<std::vector<stats::SourceStats>> bucket_stats(goals.size());
  std::vector<std::vector<double>> region_weights(goals.size());
  std::vector<double> domain_sizes(goals.size());

  for (size_t b = 0; b < goals.size(); ++b) {
    const size_t members = buckets.buckets[b].size();
    if (members > 64) {
      return InvalidArgumentError("at most 64 sources per bucket supported");
    }
    // Pass 1: bindings per source; co-occurrence signature per binding.
    // Two sources overlap exactly when some binding appears in both, so the
    // binding's *containment signature* (the set of bucket sources holding
    // it) is the natural coverage cluster: bindings with the same signature
    // are indistinguishable to the coverage model.
    std::unordered_map<size_t, uint64_t> signature_of;  // binding hash -> mask
    std::vector<size_t> cardinalities(members, 0);
    // Each source's binding hashes come from the memo when resident, so a
    // repeated (source, subgoal pattern) costs a merge, not a scan.
    const Atom pattern = BindingHashMemo::PatternOf(*goals[b]);
    for (size_t i = 0; i < members; ++i) {
      const datalog::SourceId id = buckets.buckets[b][i];
      BindingHashMemo::Key key{id, pattern};
      BindingHashMemo::Hashes hashes = memo.Lookup(key);
      if (hashes == nullptr) {
        // Scanning the pattern, not the goal, makes the hashes a function
        // of the key alone.
        PLANORDER_ASSIGN_OR_RETURN(
            std::vector<std::vector<Term>> bindings,
            SubgoalBindings(catalog, id, pattern, source_facts));
        auto scanned = std::make_shared<std::vector<size_t>>();
        scanned->reserve(bindings.size());
        for (const std::vector<Term>& binding : bindings) {
          scanned->push_back(hasher(binding));
        }
        hashes = std::move(scanned);
        memo.Insert(std::move(key), hashes);
      }
      cardinalities[i] = hashes->size();
      for (const size_t hash : *hashes) {
        signature_of[hash] |= uint64_t{1} << i;
      }
    }
    // Pass 2: one region per distinct signature, most-populated first; the
    // tail shares the last region (conservative: it can only merge clusters,
    // never split them, so overlap stays sound).
    std::map<uint64_t, int> population;
    for (const auto& [unused, signature] : signature_of) {
      ++population[signature];
    }
    std::vector<std::pair<int, uint64_t>> by_population;
    for (const auto& [signature, count] : population) {
      by_population.push_back({count, signature});
    }
    std::sort(by_population.rbegin(), by_population.rend());
    std::map<uint64_t, int> region_of_signature;
    std::vector<double> weights(regions, 0.0);
    for (size_t s = 0; s < by_population.size(); ++s) {
      const int region = std::min<int>(static_cast<int>(s), regions - 1);
      region_of_signature[by_population[s].second] = region;
      weights[region] += double(by_population[s].first);
    }
    // Pass 3: masks — a source covers every region holding a signature it
    // belongs to.
    bucket_stats[b].resize(members);
    double max_cardinality = 1.0;
    for (size_t i = 0; i < members; ++i) {
      stats::SourceStats& s = bucket_stats[b][i];
      s.transmission_cost = kTransmissionCost;
      s.failure_prob = kFailureProb;
      s.fee = kFee;
      s.cardinality = std::max<double>(1.0, double(cardinalities[i]));
      s.regions.bits = 0;
      for (const auto& [signature, region] : region_of_signature) {
        if (signature & (uint64_t{1} << i)) {
          s.regions.bits |= uint64_t{1} << region;
        }
      }
      if (s.regions.empty()) s.regions.bits = 1;  // empty source: floor
      max_cardinality = std::max(max_cardinality, s.cardinality);
    }
    // Normalize weights (epsilon keeps every region weight positive).
    double total = 0.0;
    for (double w : weights) total += w;
    region_weights[b].resize(regions);
    for (int r = 0; r < regions; ++r) {
      region_weights[b][r] =
          total > 0.0 ? (weights[r] + 1e-9) / (total + 1e-9 * regions)
                      : 1.0 / regions;
    }
    domain_sizes[b] = max_cardinality * kDomainSizeFactor;
  }
  return stats::Workload::FromParts(std::move(bucket_stats),
                                    std::move(region_weights),
                                    options.access_overhead,
                                    std::move(domain_sizes));
}

}  // namespace planorder::reformulation
