#include "anyk/executor.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "base/logging.h"

namespace planorder::anyk {

namespace {

/// Heap comparator ("a has lower priority than b" for std::push_heap): the
/// frontier is totally ordered by aggregate descending, then entry index
/// ascending, then rank vector ascending — deterministic pops even at exact
/// weight ties.
constexpr auto kCandidateLess = [](const auto& a, const auto& b) {
  if (a.agg != b.agg) return a.agg < b.agg;
  if (a.entry != b.entry) return a.entry > b.entry;
  return a.child_ranks > b.child_ranks;
};

/// Join key -> group id for one node during the bottom-up pass. Keys are
/// `width` term ids; a new key gets the next id, so ids follow insertion
/// order and never depend on the hash. Open addressing over a flat key
/// array: no allocation per group.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width) {}

  /// The group of `key`, or -1.
  int Find(const int32_t* key) const {
    if (slots_.empty()) return -1;
    for (size_t s = Hash(key);; ++s) {
      const int32_t group = slots_[s & (slots_.size() - 1)];
      if (group < 0 || Matches(group, key)) return group;
    }
  }

  /// The group of `key`, adding it as group size() when it is new.
  int Insert(const int32_t* key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t s = Hash(key);; ++s) {
      int32_t& slot = slots_[s & (slots_.size() - 1)];
      if (slot < 0) {
        keys_.insert(keys_.end(), key, key + width_);
        slot = static_cast<int32_t>(size_++);
        return slot;
      }
      if (Matches(slot, key)) return slot;
    }
  }

  size_t size() const { return size_; }

 private:
  size_t Hash(const int32_t* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ uint32_t(key[i])) * 0xbf58476d1ce4e5b9ull;
    }
    return size_t(h ^ (h >> 31));
  }

  bool Matches(int32_t group, const int32_t* key) const {
    const int32_t* stored = keys_.data() + group * width_;
    for (size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), -1);
    for (size_t group = 0; group < size_; ++group) {
      for (size_t s = Hash(keys_.data() + group * width_);; ++s) {
        int32_t& slot = slots_[s & (slots_.size() - 1)];
        if (slot < 0) {
          slot = static_cast<int32_t>(group);
          break;
        }
      }
    }
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<int32_t> keys_;   // group g's key: [g * width_, +width_)
  std::vector<int32_t> slots_;  // power-of-two size; -1 = empty
};

/// Position of `var`'s first occurrence among `atom`'s arguments.
int FirstPosition(const datalog::Atom& atom, const std::string& var) {
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    if (atom.args[pos].is_variable() && atom.args[pos].name() == var) {
      return static_cast<int>(pos);
    }
  }
  PLANORDER_CHECK(false) << "variable " << var << " not in " << atom.predicate;
  return -1;
}

}  // namespace

StatusOr<std::unique_ptr<AnyKEnumerator>> AnyKEnumerator::Create(
    const datalog::ConjunctiveQuery& query, const datalog::Database& facts,
    const WeightOptions& options) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<RelationIndex> index,
                             RelationIndex::Create(facts, options));
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<AnyKEnumerator> enumerator,
                             Create(query, index.get()));
  enumerator->owned_index_ = std::move(index);
  return enumerator;
}

StatusOr<std::unique_ptr<AnyKEnumerator>> AnyKEnumerator::Create(
    const datalog::ConjunctiveQuery& query, RelationIndex* index) {
  PLANORDER_RETURN_IF_ERROR(query.ValidateSafety());
  std::unique_ptr<AnyKEnumerator> enumerator(new AnyKEnumerator());
  enumerator->index_ = index;
  PLANORDER_RETURN_IF_ERROR(enumerator->Build(query));
  return enumerator;
}

Status AnyKEnumerator::Build(const datalog::ConjunctiveQuery& query) {
  PLANORDER_ASSIGN_OR_RETURN(tree_, BuildJoinTree(query));
  head_args_ = query.head.args;
  for (const datalog::Term& arg : head_args_) {
    if (!arg.is_variable() && !arg.IsGround()) {
      return UnimplementedError(
          "any-k does not support non-ground function terms in the head");
    }
  }
  for (const datalog::Atom& atom : query.body) {
    for (const datalog::Term& arg : atom.args) {
      if (!arg.is_variable() && !arg.IsGround()) {
        return UnimplementedError(
            "any-k does not support non-ground function terms in the body");
      }
    }
  }

  // Variable slots, numbered in first-occurrence order over the body.
  std::vector<const std::string*> slot_names;
  auto slot_of = [&slot_names](const std::string& var) {
    for (size_t slot = 0; slot < slot_names.size(); ++slot) {
      if (*slot_names[slot] == var) return static_cast<int>(slot);
    }
    slot_names.push_back(&var);
    return static_cast<int>(slot_names.size() - 1);
  };

  // Admissible rows: the atom's relation filtered by its constants and
  // repeated variables, both compared as ids.
  const int n = static_cast<int>(query.body.size());
  nodes_.resize(n);
  for (int i = 0; i < n; ++i) {
    NodeState& node = nodes_[i];
    const datalog::Atom& atom = query.body[i];
    const int arity = static_cast<int>(atom.args.size());
    const RelationIndex::Relation& relation =
        index_->Get(atom.predicate, arity);
    node.relation = &relation;
    // (position, id) per constant; (position, first position) per repeat.
    std::vector<std::pair<int, int32_t>> constants;
    std::vector<std::pair<int, int>> repeats;
    bool absent_constant = false;
    for (int pos = 0; pos < arity; ++pos) {
      const datalog::Term& arg = atom.args[pos];
      if (!arg.is_variable()) {
        const int32_t id = index_->Find(arg);
        absent_constant = absent_constant || id < 0;
        constants.emplace_back(pos, id);
        continue;
      }
      const int first = FirstPosition(atom, arg.name());
      if (first < pos) {
        repeats.emplace_back(pos, first);
      } else {
        node.binds.emplace_back(pos, slot_of(arg.name()));
      }
    }
    // A constant no indexed row contains leaves the node without rows.
    if (absent_constant) continue;
    node.rows.reserve(relation.size());
    for (size_t r = 0; r < relation.size(); ++r) {
      const int32_t* row = relation.row(r);
      bool match = true;
      for (const auto& [pos, id] : constants) match = match && row[pos] == id;
      for (const auto& [pos, first] : repeats) {
        match = match && row[pos] == row[first];
      }
      if (match) node.rows.push_back(static_cast<int>(r));
    }
  }
  head_slots_.reserve(head_args_.size());
  for (const datalog::Term& arg : head_args_) {
    // Safety (checked by Create) puts every head variable in the body.
    head_slots_.push_back(arg.is_variable() ? slot_of(arg.name()) : -1);
  }
  slots_.assign(slot_names.size(), -1);

  // Bottom-up DP: removal_order lists children before parents. Each node
  // groups its admissible rows by join key towards the parent; the parent
  // resolves its rows' child groups against the children's tables.
  std::vector<GroupTable> tables;
  tables.reserve(n);
  for (int i = 0; i < n; ++i) {
    tables.emplace_back(tree_.nodes[i].join_vars.size());
  }
  std::vector<int32_t> key;
  std::vector<int> row_group;
  std::vector<double> row_best;
  for (int i : tree_.removal_order) {
    NodeState& node = nodes_[i];
    const datalog::Atom& atom = query.body[i];
    const std::vector<int>& children = tree_.nodes[i].children;
    const size_t num_children = children.size();
    // Key-extraction positions: children's keys first, then the parent's.
    // Running-intersection property: every child join variable occurs in
    // this atom.
    std::vector<std::vector<int>> key_positions(num_children + 1);
    for (size_t c = 0; c <= num_children; ++c) {
      const int owner = c < num_children ? children[c] : i;
      for (const std::string& var : tree_.nodes[owner].join_vars) {
        key_positions[c].push_back(FirstPosition(atom, var));
      }
    }
    auto extract = [&](int row, const std::vector<int>& positions) {
      const int32_t* ids = node.relation->row(node.rows[row]);
      key.clear();
      for (int pos : positions) key.push_back(ids[pos]);
      return key.data();
    };

    const size_t num_rows = node.rows.size();
    node.child_groups.resize(num_rows * num_children);
    row_group.assign(num_rows, -1);
    row_best.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      double agg = node.relation->weights[node.rows[r]];
      bool admissible = true;
      for (size_t c = 0; c < num_children; ++c) {
        const int group =
            tables[children[c]].Find(extract(int(r), key_positions[c]));
        if (group < 0) {
          // Semi-join reduction: no subtree solution joins this row.
          admissible = false;
          break;
        }
        node.child_groups[r * num_children + c] = group;
        const NodeState& child = nodes_[children[c]];
        agg = AggregationCombine(
            index_->options().aggregation, agg,
            child.entries[child.groups[group].begin].best);
      }
      if (!admissible) continue;
      row_group[r] = tables[i].Insert(extract(int(r), key_positions.back()));
      row_best[r] = agg;
    }

    // Lay the entries out group after group (row-scan order within each
    // group), then sort each group. Ties break on the original terms, not
    // on ids, so the order does not depend on which enumerator interned a
    // term first.
    node.groups.resize(tables[i].size());
    for (int group : row_group) {
      if (group >= 0) ++node.groups[group].size;
    }
    int offset = 0;
    for (Group& group : node.groups) {
      group.begin = offset;
      offset += group.size;
      group.size = 0;
    }
    node.entries.resize(offset);
    for (size_t r = 0; r < num_rows; ++r) {
      if (row_group[r] < 0) continue;
      Group& group = node.groups[row_group[r]];
      node.entries[group.begin + group.size++] =
          Entry{static_cast<int>(r), row_best[r]};
    }
    const RelationIndex::Relation& relation = *node.relation;
    for (const Group& group : node.groups) {
      std::sort(node.entries.begin() + group.begin,
                node.entries.begin() + group.begin + group.size,
                [&](const Entry& a, const Entry& b) {
                  if (a.best != b.best) return a.best > b.best;
                  return *relation.tuples[node.rows[a.row]] <
                         *relation.tuples[node.rows[b.row]];
                });
    }
  }
  root_group_ = tables[tree_.root].Find(nullptr);  // the root's key is empty
  return OkStatus();
}

const int* AnyKEnumerator::ChildGroups(int node, int row) const {
  return nodes_[node].child_groups.data() +
         size_t(row) * tree_.nodes[node].children.size();
}

double AnyKEnumerator::CombineAggregate(int node, int group, int entry,
                                        const std::vector<int>& ranks) {
  const NodeState& state = nodes_[node];
  const int row = state.entries[state.groups[group].begin + entry].row;
  double agg = state.relation->weights[state.rows[row]];
  const int* child_groups = ChildGroups(node, row);
  const std::vector<int>& children = tree_.nodes[node].children;
  for (size_t c = 0; c < children.size(); ++c) {
    const Solution* solution =
        GetSolution(children[c], child_groups[c], ranks[c]);
    PLANORDER_CHECK(solution != nullptr);
    agg = AggregationCombine(index_->options().aggregation, agg,
                             solution->agg);
  }
  return agg;
}

void AnyKEnumerator::PushCandidate(int node, int group, Candidate candidate) {
  std::vector<Candidate>& frontier = nodes_[node].groups[group].frontier;
  frontier.push_back(std::move(candidate));
  std::push_heap(frontier.begin(), frontier.end(), kCandidateLess);
}

const AnyKEnumerator::Solution* AnyKEnumerator::GetSolution(int node,
                                                            int group,
                                                            int rank) {
  NodeState& state = nodes_[node];
  Group& g = state.groups[group];
  const Entry* entries = state.entries.data() + g.begin;
  const std::vector<int>& children = tree_.nodes[node].children;
  if (!g.open) {
    g.open = true;
    if (g.size > 0) {
      PushCandidate(node, group,
                    Candidate{entries[0].best, 0,
                              std::vector<int>(children.size(), 0), 0});
    }
  }
  while (static_cast<int>(g.produced.size()) <= rank && !g.frontier.empty()) {
    std::pop_heap(g.frontier.begin(), g.frontier.end(), kCandidateLess);
    Candidate top = std::move(g.frontier.back());
    g.frontier.pop_back();
    g.produced.push_back(Solution{top.agg, top.entry, top.child_ranks});

    // Successor 1 (Lawler partition over the sorted entry list): the next
    // entry enters the frontier only from the all-zeros rank vector, so each
    // (entry, ranks) pair is generated exactly once.
    const bool all_zero =
        std::all_of(top.child_ranks.begin(), top.child_ranks.end(),
                    [](int r) { return r == 0; });
    if (all_zero && top.entry + 1 < g.size) {
      PushCandidate(node, group,
                    Candidate{entries[top.entry + 1].best, top.entry + 1,
                              std::vector<int>(children.size(), 0), 0});
    }
    // Successor 2: bump one child rank at or after the last bumped position
    // (the unique non-decreasing increment path to every rank vector).
    const int* child_groups = ChildGroups(node, entries[top.entry].row);
    for (size_t c = top.last_inc; c < children.size(); ++c) {
      if (GetSolution(children[c], child_groups[c], top.child_ranks[c] + 1) ==
          nullptr) {
        continue;  // that child stream is exhausted at this depth
      }
      std::vector<int> ranks = top.child_ranks;
      ++ranks[c];
      const double agg = CombineAggregate(node, group, top.entry, ranks);
      PushCandidate(node, group,
                    Candidate{agg, top.entry, std::move(ranks),
                              static_cast<int>(c)});
    }
  }
  if (static_cast<int>(g.produced.size()) <= rank) return nullptr;
  return &g.produced[rank];
}

void AnyKEnumerator::BindWitness(int node, int group, int rank) {
  const NodeState& state = nodes_[node];
  const Solution& solution = state.groups[group].produced[rank];
  const int row =
      state.entries[state.groups[group].begin + solution.entry].row;
  const int32_t* ids = state.relation->row(state.rows[row]);
  for (const auto& [pos, slot] : state.binds) slots_[slot] = ids[pos];
  const int* child_groups = ChildGroups(node, row);
  const std::vector<int>& children = tree_.nodes[node].children;
  for (size_t c = 0; c < children.size(); ++c) {
    BindWitness(children[c], child_groups[c], solution.child_ranks[c]);
  }
}

const RankedAnswer* AnyKEnumerator::Peek() {
  if (peek_valid_) return &peeked_;
  if (root_group_ < 0) return nullptr;
  const Solution* solution = GetSolution(tree_.root, root_group_, next_rank_);
  if (solution == nullptr) return nullptr;
  BindWitness(tree_.root, root_group_, next_rank_);
  peeked_.tuple.clear();
  peeked_.tuple.reserve(head_args_.size());
  for (size_t i = 0; i < head_args_.size(); ++i) {
    peeked_.tuple.push_back(head_slots_[i] < 0
                                ? head_args_[i]
                                : index_->term(slots_[head_slots_[i]]));
  }
  peeked_.weight = solution->agg;
  peek_valid_ = true;
  return &peeked_;
}

StatusOr<RankedAnswer> AnyKEnumerator::Next() {
  if (Peek() == nullptr) {
    return NotFoundError("any-k enumeration exhausted");
  }
  peek_valid_ = false;
  ++next_rank_;
  ++witnesses_emitted_;
  return std::move(peeked_);
}

}  // namespace planorder::anyk
