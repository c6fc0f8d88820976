#ifndef PLANORDER_ANYK_EXECUTOR_H_
#define PLANORDER_ANYK_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "anyk/join_tree.h"
#include "anyk/relation_index.h"
#include "anyk/weights.h"
#include "base/status.h"
#include "datalog/evaluator.h"

namespace planorder::anyk {

/// Ranked (any-k) enumeration of one acyclic conjunctive query's results:
/// witnesses come out in non-increasing aggregate weight without ever
/// materializing the full join.
///
/// Two phases (Tziavelis et al., "Any-k Algorithms for Enumerating Ranked
/// Answers to Conjunctive Queries"):
///
///  1. Bottom-up DP over the join tree. Each node's admissible tuples are
///     grouped by their join key towards the parent; a tuple's DP value is
///     the best aggregate achievable in its subtree (its own weight combined
///     with each child group's best). Tuples whose child group is empty are
///     pruned — the classic semi-join reduction, for free.
///  2. Lazy successor generation. Per (node, join-key) group a ranked stream
///     of subtree solutions is materialized on demand from a priority queue:
///     popping a solution pushes its Lawler-style successors (advance to the
///     next tuple from the all-zeros rank vector; bump one child rank at or
///     after the last bumped position), so producing the k-th solution costs
///     O(log) heap work per step and streams are shared across all parent
///     tuples with the same key.
///
/// Weight determinism: aggregates are folded over dyadic-rational tuple
/// weights (see WeightOptions), so the DP value, the enumerator's emission
/// weight and any independent recomputation agree bit-for-bit.
///
/// Representation: the enumerator never touches a Term after Build. Rows
/// come from a RelationIndex as interned id arrays; constant and
/// repeated-variable filters and join keys compare ids; each row records the
/// child groups it joins once, during the DP; a witness binds ids into one
/// slot per query variable, and only the head arguments turn back into
/// terms.
///
/// Emission order contract: weights are non-increasing; the order among
/// equal-weight witnesses is deterministic but otherwise unspecified —
/// ranked consumers that need a canonical tie order (the global frontier
/// merge, the differential oracle) batch equal-weight answers and sort them.
class AnyKEnumerator {
 public:
  /// Builds the DP (phase 1) for `query` over `facts` through a
  /// RelationIndex the enumerator owns. `facts` must outlive the enumerator;
  /// `query` must be safe and acyclic (kFailedPrecondition otherwise,
  /// kUnimplemented on comparison atoms or non-ground function arguments,
  /// kInvalidArgument on a bad WeightOptions::scale).
  static StatusOr<std::unique_ptr<AnyKEnumerator>> Create(
      const datalog::ConjunctiveQuery& query, const datalog::Database& facts,
      const WeightOptions& options);

  /// Same, over a shared index (weights come from `index->options()`): the
  /// relations this query touches are scanned only if no earlier enumerator
  /// over `index` touched them. `index` must outlive the enumerator. The
  /// witness sequence is identical to the owning overload's.
  static StatusOr<std::unique_ptr<AnyKEnumerator>> Create(
      const datalog::ConjunctiveQuery& query, RelationIndex* index);

  /// The next witness's head projection, or nullptr when exhausted. The
  /// pointer stays valid until the following Peek()/Next() call.
  const RankedAnswer* Peek();

  /// Emits the next witness's head projection (kNotFound when exhausted).
  /// Distinct witnesses can project to the same answer; deduplication is the
  /// caller's concern (first occurrence carries the answer's best weight).
  StatusOr<RankedAnswer> Next();

  /// Witnesses emitted so far (not deduplicated).
  size_t witnesses_emitted() const { return witnesses_emitted_; }

 private:
  /// One admissible tuple of a node together with its DP value.
  struct Entry {
    int row = 0;        // index into NodeState::rows
    double best = 0.0;  // best subtree aggregate achievable through this row
  };

  /// A fully ranked subtree solution: entry + one rank per child stream.
  struct Solution {
    double agg = 0.0;
    int entry = 0;
    std::vector<int> child_ranks;
  };

  /// A frontier element of a group's lazy stream. `last_inc` is the Lawler
  /// partition pointer: successors may only bump child ranks at or after it.
  struct Candidate {
    double agg = 0.0;
    int entry = 0;
    std::vector<int> child_ranks;
    int last_inc = 0;
  };

  /// All subtree solutions sharing one (node, parent join key): its sorted
  /// DP entries (NodeState::entries[begin, begin + size)) plus the lazily
  /// materialized ranked stream over them.
  struct Group {
    int begin = 0;
    int size = 0;
    bool open = false;
    std::vector<Solution> produced;
    std::vector<Candidate> frontier;  // heap (std::push_heap/pop_heap)
  };

  struct NodeState {
    const RelationIndex::Relation* relation = nullptr;
    /// Admissible relation rows (constants and repeated variables already
    /// enforced), in relation order.
    std::vector<int> rows;
    /// (argument position, variable slot) of each variable's first
    /// occurrence in the atom.
    std::vector<std::pair<int, int>> binds;
    /// child_groups[r * children + c]: the group of child c that admissible
    /// row r joins, resolved once by the bottom-up pass (only meaningful for
    /// rows that made it into an entry).
    std::vector<int> child_groups;
    /// Every group's entries, group after group, each group sorted by best
    /// aggregate descending (original tuple ascending on ties).
    std::vector<Entry> entries;
    /// Group ids follow the first admissible row of each join key in the
    /// row scan.
    std::vector<Group> groups;
  };

  AnyKEnumerator() = default;

  Status Build(const datalog::ConjunctiveQuery& query);

  /// Forces production of `rank` in the group's stream; nullptr = exhausted
  /// before `rank`.
  const Solution* GetSolution(int node, int group, int rank);

  /// The child groups admissible row `row` of `node` joins, one per child.
  const int* ChildGroups(int node, int row) const;

  /// Aggregate of (entry row weight ⊕ children at `ranks`). All referenced
  /// child solutions must already be produced.
  double CombineAggregate(int node, int group, int entry,
                          const std::vector<int>& ranks);

  void PushCandidate(int node, int group, Candidate candidate);

  /// Writes the term ids of the witness rooted at (node, group, rank) into
  /// `slots_`, one per query variable.
  void BindWitness(int node, int group, int rank);

  std::unique_ptr<RelationIndex> owned_index_;  // set by the owning Create
  RelationIndex* index_ = nullptr;
  JoinTree tree_;
  std::vector<datalog::Term> head_args_;
  /// Per head argument: its variable slot, or -1 for a constant (emitted as
  /// the head_args_ term itself).
  std::vector<int> head_slots_;
  std::vector<NodeState> nodes_;
  std::vector<int32_t> slots_;  // witness binding: term id per variable slot
  int root_group_ = -1;  // -1 = empty result
  int next_rank_ = 0;
  RankedAnswer peeked_;
  bool peek_valid_ = false;
  size_t witnesses_emitted_ = 0;
};

}  // namespace planorder::anyk

#endif  // PLANORDER_ANYK_EXECUTOR_H_
