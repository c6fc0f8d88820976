#include "anyk/brute_force.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "datalog/builtins.h"

namespace planorder::anyk {

namespace {

/// Best-weight-per-answer accumulator of the oracle: keyed emplace/update
/// during the join, then one drain sorted by RankedBefore (a total order),
/// so hash order never reaches the emitted ranking.
// detlint: order-insensitive(drained via std::sort(RankedBefore) total order)
using BestMap = std::unordered_map<std::vector<datalog::Term>, double,
                                   datalog::TermVectorHash>;

/// Naive backtracking join over the body, accumulating per-answer best
/// weights into a shared map (so the union variant merges for free).
class Matcher {
 public:
  Matcher(const datalog::ConjunctiveQuery& query,
          const datalog::Database& facts, const WeightOptions& options,
          BestMap& best)
      : query_(query), facts_(facts), options_(options), best_(best) {}

  void Run() { Recurse(0, AggregationIdentity(options_.aggregation)); }

 private:
  void Recurse(size_t depth, double agg) {
    if (depth == query_.body.size()) {
      std::vector<datalog::Term> answer;
      answer.reserve(query_.head.args.size());
      for (const datalog::Term& arg : query_.head.args) {
        answer.push_back(arg.is_variable() ? bindings_.at(arg.name()) : arg);
      }
      auto [it, inserted] = best_.emplace(std::move(answer), agg);
      if (!inserted && agg > it->second) it->second = agg;
      return;
    }
    const datalog::Atom& atom = query_.body[depth];
    for (const std::vector<datalog::Term>& row :
         facts_.TuplesFor(atom.predicate)) {
      if (row.size() != atom.args.size()) continue;
      std::vector<std::string> bound_here;
      bool match = true;
      for (size_t pos = 0; pos < atom.args.size() && match; ++pos) {
        const datalog::Term& arg = atom.args[pos];
        if (!arg.is_variable()) {
          match = row[pos] == arg;
          continue;
        }
        const auto it = bindings_.find(arg.name());
        if (it != bindings_.end()) {
          match = it->second == row[pos];
        } else {
          bindings_.emplace(arg.name(), row[pos]);
          bound_here.push_back(arg.name());
        }
      }
      if (match) {
        Recurse(depth + 1,
                AggregationCombine(options_.aggregation, agg,
                                   TupleWeight(options_, row)));
      }
      for (const std::string& var : bound_here) bindings_.erase(var);
    }
  }

  const datalog::ConjunctiveQuery& query_;
  const datalog::Database& facts_;
  const WeightOptions& options_;
  // detlint: order-insensitive(keyed lookup/erase during backtracking only)
  std::unordered_map<std::string, datalog::Term> bindings_;
  BestMap& best_;
};

Status ValidateForRanking(const datalog::ConjunctiveQuery& query) {
  PLANORDER_RETURN_IF_ERROR(query.ValidateSafety());
  if (query.body.empty()) {
    return InvalidArgumentError("ranked oracle needs a non-empty body");
  }
  for (const datalog::Term& arg : query.head.args) {
    if (!arg.is_variable() && !arg.IsGround()) {
      return UnimplementedError(
          "ranked oracle does not support non-ground function terms");
    }
  }
  for (const datalog::Atom& atom : query.body) {
    if (datalog::IsComparisonAtom(atom)) {
      return UnimplementedError(
          "ranked oracle does not support interpreted comparison atoms");
    }
    for (const datalog::Term& arg : atom.args) {
      if (!arg.is_variable() && !arg.IsGround()) {
        return UnimplementedError(
            "ranked oracle does not support non-ground function terms");
      }
    }
  }
  return OkStatus();
}

std::vector<RankedAnswer> SortedAnswers(BestMap& best) {
  std::vector<RankedAnswer> answers;
  answers.reserve(best.size());
  for (auto& [tuple, weight] : best) {
    answers.push_back(RankedAnswer{tuple, weight});
  }
  std::sort(answers.begin(), answers.end(), RankedBefore);
  return answers;
}

}  // namespace

StatusOr<std::vector<RankedAnswer>> BruteForceRankedAnswers(
    const datalog::ConjunctiveQuery& query, const datalog::Database& facts,
    const WeightOptions& options) {
  return BruteForceRankedUnion({query}, facts, options);
}

StatusOr<std::vector<RankedAnswer>> BruteForceRankedUnion(
    const std::vector<datalog::ConjunctiveQuery>& queries,
    const datalog::Database& facts, const WeightOptions& options) {
  PLANORDER_RETURN_IF_ERROR(ValidateWeightOptions(options));
  BestMap best;
  for (const datalog::ConjunctiveQuery& query : queries) {
    PLANORDER_RETURN_IF_ERROR(ValidateForRanking(query));
    Matcher(query, facts, options, best).Run();
  }
  return SortedAnswers(best);
}

}  // namespace planorder::anyk
