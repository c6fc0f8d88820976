#ifndef PLANORDER_CORE_STREAMER_H_
#define PLANORDER_CORE_STREAMER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/abstraction.h"
#include "core/frontier_heap.h"
#include "core/orderer.h"

namespace planorder::core {

/// The Streamer algorithm (Section 5.2, Figure 5). Applicable when the
/// utility measure has diminishing returns. Abstracts sources once, then
/// maintains a dominance graph whose alive nodes partition the not-yet
/// emitted plan space:
///
///  - nodes are (possibly abstract) plans with interval utilities;
///  - a link b -> c records that b's utility interval dominated c's when the
///    link was created; a node with no incoming link is nondominated;
///  - nondominated abstract plans are refined (children replace the parent);
///  - when every nondominated plan is concrete, the best one is emitted.
///
/// After emitting d, instead of rebuilding dominance information (iDrips),
/// Streamer recycles it: each link p -> q carries the set E(p,q) of plans
/// emitted since its creation, and stays valid as long as some concrete plan
/// in p is independent of all of E(p,q) — that plan's utility is unchanged
/// while q's can only have fallen (diminishing returns), so p still
/// dominates q. Links that fail the check are dropped; utilities of plans
/// not independent of d are invalidated and lazily recomputed.
///
/// Implementation notes relative to Figure 5:
///  - Links are created star-wise from the current best nondominated plan
///    rather than between every dominating pair; this leaves the same
///    nondominated frontier with O(frontier) instead of O(frontier^2) links.
///  - A link is justified by the plain interval test (l_p >= h_q), so every
///    member of p dominates q; it carries one such member as its witness and
///    is revalidated by checking the witness's independence incrementally.
class StreamerOrderer : public Orderer {
 public:
  /// Fails when `model` lacks diminishing returns (e.g. cost with caching).
  static StatusOr<std::unique_ptr<StreamerOrderer>> Create(
      const stats::Workload* workload, utility::UtilityModel* model,
      std::vector<PlanSpace> spaces,
      AbstractionHeuristic heuristic = AbstractionHeuristic::kByCardinality);

  std::string name() const override { return "streamer"; }

  /// Introspection for tests/benchmarks.
  int num_alive_nodes() const { return static_cast<int>(alive_.size()); }
  int num_alive_links() const { return static_cast<int>(alive_links_.size()); }

  /// Per-node staleness walks performed by ComputeNext (the utility-currency
  /// checks of step 2.a). Regression guard: the frontier is checked once per
  /// emission, not once per refinement — a drain of E emissions with a
  /// frontier of ~F nodes performs O(E * F) checks, not O(E * F *
  /// refinements). See tests/streamer_test.cc.
  int64_t num_staleness_checks() const { return num_staleness_checks_; }

 protected:
  StatusOr<OrderedPlan> ComputeNext() override;
  void OnExecuted(const ConcretePlan& plan) override;

 private:
  struct Node {
    AbstractPlan plan;
    /// Cached plan.Summaries() (stable: forests are immutable).
    std::vector<const stats::StatSummary*> summaries;
    Interval utility;
    /// Number of executed plans the stored utility is conditioned on; -1
    /// when never evaluated. Staleness is checked lazily on access: the
    /// utility is current iff the node is independent of every plan executed
    /// since (diminishing-returns measures only shift dependent utilities).
    int64_t eval_epoch = -1;
    bool alive = true;
    bool concrete = false;
    int incoming = 0;  // alive incoming links
  };
  struct Link {
    int from;
    int to;
    bool alive = true;
    /// A concrete member of `from` (every member dominated `to` at creation)
    /// verified independent of everything executed since. Checked
    /// incrementally per emission; on failure the link searches for a
    /// replacement witness over E(p,q), and dies when there is none.
    ConcretePlan witness;
    /// Epoch at creation: E(p,q) is the suffix of the context's executed
    /// list starting here — no per-link storage needed.
    int64_t created_epoch = 0;
  };

  StreamerOrderer(const stats::Workload* workload, utility::UtilityModel* model)
      : Orderer(workload, model) {}

  int AddNode(AbstractPlan plan);
  void AddLink(int from, int to);
  void KillLink(int link_index);
  /// Kills `node` and every link leaving it.
  void RemoveNode(int node_index);
  /// Lower-id-wins interval domination (keeps the relation acyclic on ties).
  bool Dominates(int a, int b) const;
  /// Evaluates the node against the current context (counting it), stores
  /// the result and pushes its selection-heap entry.
  void EvaluateNode(int node_index);
  /// True when the node's stored utility still reflects the executed set;
  /// fast-forwards eval_epoch when it does.
  bool UtilityCurrent(Node& node);
  /// Pushes the node's current bounds into its selection heap (abstract
  /// nodes by upper bound, concrete ones by exact utility).
  void PushNodeEntry(int node_index);
  /// True iff `a` precedes `b` in the dominator-scan order (utility lower
  /// bound descending, id ascending) — only preceding nodes can dominate.
  bool Precedes(int a, int b) const;
  /// Full dominance-link pass over `snapshot` (sorted in place), used once
  /// per ComputeNext after the refresh; each node links from its closest
  /// preceding dominator.
  void LinkFullPass(std::vector<int>& snapshot);
  /// Incremental pass after one refinement: `fresh` is the set of nodes
  /// whose dominance relations changed this round — the refinement's two
  /// children (the parent's links are transferred, so nothing re-enters the
  /// frontier mid-loop). Survivor-vs-survivor relations did not change
  /// (their utilities are fixed within one ComputeNext), so only
  /// fresh-vs-candidate and candidate-vs-fresh pairs are checked.
  void LinkFresh(const std::vector<int>& fresh,
                 const std::vector<int>& candidates);

  std::vector<std::unique_ptr<AbstractionForest>> forests_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<int> free_links_;                       // recyclable slots
  std::vector<std::vector<int>> out_links_;           // node -> link indices
  std::set<int> alive_;                               // alive node ids
  std::set<int> nondominated_;                        // alive, incoming == 0
  std::set<int> alive_links_;                         // alive link indices
  std::vector<int> scratch_;                          // reusable buffer
  /// Selection heaps over nondominated nodes (DESIGN.md §11), replacing the
  /// per-refinement rescans: abstract nodes by (upper bound desc, width
  /// desc, id asc), concrete ones by (exact utility desc, id asc). Entries
  /// carry node_version_ at push time; an entry is live iff its node is
  /// alive, currently nondominated, and the version still matches (lazy
  /// decrease-key, as in idrips.cc). A node freed by KillLink re-pushes its
  /// unchanged bounds, so a previously consumed entry cannot be missed.
  FrontierHeap abstract_heap_;
  FrontierHeap concrete_heap_;
  std::vector<uint32_t> node_version_;
  int64_t num_staleness_checks_ = 0;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_STREAMER_H_
