#include "datalog/canonicalize.h"

#include <algorithm>
#include <utility>

#include "base/hash.h"

namespace planorder::datalog {

namespace {

/// Upper bound on backtracking nodes. Tie exploration is factorial only for
/// pathologically self-similar bodies; past the budget the search continues
/// greedily (still deterministic — DFS order is fixed — just possibly not
/// the class-wide minimum, which a cache experiences as a miss).
constexpr int kMaxSearchNodes = 20000;

/// Appends an unambiguous rendering of `term` under the variable assignment:
/// mapped variables render as their canonical id, unmapped ones are assigned
/// the next tentative id in `local` (layered over `assigned`).
void TermSignature(const Term& term, const std::map<std::string, int>& assigned,
                   std::map<std::string, int>& local, int& next_id,
                   std::string& out) {
  switch (term.kind()) {
    case Term::Kind::kConstant:
      out += 'c';
      out += term.name();
      out += '\x1f';
      return;
    case Term::Kind::kVariable: {
      auto it = assigned.find(term.name());
      int id;
      if (it != assigned.end()) {
        id = it->second;
      } else {
        auto [lit, inserted] = local.try_emplace(term.name(), next_id);
        if (inserted) ++next_id;
        id = lit->second;
      }
      out += 'v';
      out += std::to_string(id);
      out += '\x1f';
      return;
    }
    case Term::Kind::kFunction: {
      out += 'f';
      out += term.name();
      out += '(';
      for (const Term& arg : term.args()) {
        TermSignature(arg, assigned, local, next_id, out);
      }
      out += ')';
      return;
    }
  }
}

/// Signature of one atom under the current assignment; `*local` receives the
/// tentative ids handed to the atom's fresh variables.
std::string AtomSignature(const Atom& atom,
                          const std::map<std::string, int>& assigned,
                          int next_id, std::map<std::string, int>* local) {
  std::string sig = atom.predicate;
  sig += '(';
  for (const Term& arg : atom.args) {
    TermSignature(arg, assigned, *local, next_id, sig);
  }
  sig += ')';
  return sig;
}

struct Search {
  const std::vector<Atom>* body = nullptr;
  bool exact = true;
  int nodes = 0;

  std::vector<bool> used;
  std::vector<size_t> order;
  std::map<std::string, int> assigned;
  int next_id = 0;

  bool have_best = false;
  std::string best_key;
  std::vector<size_t> best_order;
  std::map<std::string, int> best_assigned;

  void Run(const std::string& prefix) { Step(prefix); }

  void Step(const std::string& prefix) {
    ++nodes;
    if (order.size() == body->size()) {
      if (!have_best || prefix < best_key) {
        have_best = true;
        best_key = prefix;
        best_order = order;
        best_assigned = assigned;
      }
      return;
    }
    // Minimal next-atom signature under the current assignment.
    std::string min_sig;
    std::vector<size_t> ties;
    for (size_t i = 0; i < body->size(); ++i) {
      if (used[i]) continue;
      std::map<std::string, int> local;
      std::string sig =
          AtomSignature((*body)[i], assigned, next_id, &local);
      if (ties.empty() || sig < min_sig) {
        min_sig = std::move(sig);
        ties.assign(1, i);
      } else if (sig == min_sig) {
        ties.push_back(i);
      }
    }
    // Branch over ties (a minimal completion must start with a minimal
    // signature); outside exact mode or past the budget, take the first.
    const size_t branches =
        (exact && nodes < kMaxSearchNodes) ? ties.size() : 1;
    for (size_t t = 0; t < branches; ++t) {
      const size_t i = ties[t];
      // Commit the atom: assign its fresh variables for real.
      std::map<std::string, int> local;
      int committed_next = next_id;
      {
        std::string discard = (*body)[i].predicate;
        for (const Term& arg : (*body)[i].args) {
          TermSignature(arg, assigned, local, committed_next, discard);
        }
      }
      for (const auto& [name, id] : local) assigned.emplace(name, id);
      std::swap(next_id, committed_next);
      used[i] = true;
      order.push_back(i);

      Step(prefix + min_sig + '|');

      order.pop_back();
      used[i] = false;
      std::swap(next_id, committed_next);
      for (const auto& [name, unused] : local) assigned.erase(name);
    }
  }
};

Term RenameTerm(const Term& term, const std::map<std::string, int>& assigned) {
  switch (term.kind()) {
    case Term::Kind::kConstant:
      return term;
    case Term::Kind::kVariable: {
      auto it = assigned.find(term.name());
      // Every variable of a canonicalized query is assigned (head vars up
      // front, body vars during the search); an unmapped variable can only
      // come from a caller mutating the query concurrently.
      return Term::Variable(it == assigned.end()
                                ? term.name()
                                : "V" + std::to_string(it->second));
    }
    case Term::Kind::kFunction: {
      std::vector<Term> args;
      args.reserve(term.args().size());
      for (const Term& arg : term.args()) {
        args.push_back(RenameTerm(arg, assigned));
      }
      return Term::Function(term.name(), std::move(args));
    }
  }
  return term;
}

}  // namespace

CanonicalQuery CanonicalizeQuery(const ConjunctiveQuery& query) {
  Search search;
  search.body = &query.body;
  search.exact = query.body.size() <= kExactCanonicalizationLimit;
  search.used.assign(query.body.size(), false);

  // Head variables seed the assignment in argument order: head positions are
  // fixed (they define the answer-tuple layout), so this start is shared by
  // every member of the isomorphism class.
  std::string head_sig = "q(";
  for (const Term& arg : query.head.args) {
    TermSignature(arg, {}, search.assigned, search.next_id, head_sig);
  }
  head_sig += "):-";

  search.Run(head_sig);

  CanonicalQuery result;
  result.body_order = std::move(search.best_order);
  // Rebuild the canonical query from the winning order + assignment.
  std::vector<Term> head_args;
  head_args.reserve(query.head.args.size());
  for (const Term& arg : query.head.args) {
    head_args.push_back(RenameTerm(arg, search.best_assigned));
  }
  result.query.head = Atom("q", std::move(head_args));
  result.query.body.reserve(query.body.size());
  for (size_t original : result.body_order) {
    const Atom& atom = query.body[original];
    std::vector<Term> args;
    args.reserve(atom.args.size());
    for (const Term& arg : atom.args) {
      args.push_back(RenameTerm(arg, search.best_assigned));
    }
    result.query.body.emplace_back(atom.predicate, std::move(args));
  }
  for (const auto& [name, id] : search.best_assigned) {
    result.renaming.emplace(name, "V" + std::to_string(id));
  }
  result.key = result.query.ToString();
  result.hash = Fnv1a64(result.key);
  return result;
}

}  // namespace planorder::datalog
