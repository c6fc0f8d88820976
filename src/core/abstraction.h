#ifndef PLANORDER_CORE_ABSTRACTION_H_
#define PLANORDER_CORE_ABSTRACTION_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/plan_space.h"
#include "stats/source_stats.h"
#include "stats/workload.h"

namespace planorder::core {

/// How sources within a bucket are ordered before being grouped into a
/// balanced binary abstraction tree. Grouping similar sources keeps the
/// utility intervals of abstract plans tight, which is what lets Drips-style
/// pruning eliminate whole groups (Section 3, "Source Similarity").
enum class AbstractionHeuristic {
  /// Group sources with similar expected output cardinality — the heuristic
  /// the paper's experiments use (Section 6).
  kByCardinality,
  /// Group sources with similar coverage region sets (ablation).
  kByMaskSimilarity,
  /// Random grouping (ablation floor).
  kRandom,
};

/// Per-bucket binary abstraction trees over one plan space. Node 0..n-1 are
/// shared across buckets in one arena; each leaf is a concrete source of the
/// space, each inner node the abstraction of its two children with hulled
/// statistics (StatSummary::Merge).
///
/// Storage is flat and structure-of-arrays (DESIGN.md §11): summaries in one
/// contiguous array, child links as uint32_t indices in two more. The inner
/// evaluation loop reads only summaries_; the links are touched once per
/// refinement, so keeping them out of the summary array keeps it dense.
class AbstractionForest {
 public:
  /// Child sentinel of a leaf node.
  static constexpr uint32_t kNoChild = 0xffffffffu;
  /// Builds trees for every bucket of `space`. `seed` only matters for
  /// kRandom.
  static AbstractionForest Build(const stats::Workload& workload,
                                 const PlanSpace& space,
                                 AbstractionHeuristic heuristic,
                                 uint64_t seed = 0);

  int num_buckets() const { return static_cast<int>(roots_.size()); }

  /// Root node id of bucket b's tree.
  int root(int bucket) const { return roots_[bucket]; }

  const stats::StatSummary& summary(int node) const {
    return summaries_[static_cast<size_t>(node)];
  }
  bool is_leaf(int node) const {
    return left_[static_cast<size_t>(node)] == kNoChild;
  }
  int left(int node) const {
    return static_cast<int>(left_[static_cast<size_t>(node)]);
  }
  int right(int node) const {
    return static_cast<int>(right_[static_cast<size_t>(node)]);
  }

  /// For a leaf: its concrete source index within the workload bucket.
  int leaf_source(int node) const { return summary(node).members[0]; }

  int num_nodes() const { return static_cast<int>(summaries_.size()); }

 private:
  int BuildRange(const stats::Workload& workload, int bucket,
                 const std::vector<int>& ordered, int lo, int hi);

  /// SoA node storage: summaries_[n] with child links left_[n]/right_[n]
  /// (kNoChild for leaves).
  std::vector<stats::StatSummary> summaries_;
  std::vector<uint32_t> left_;
  std::vector<uint32_t> right_;
  std::vector<int> roots_;
};

/// The refinement rule of every Drips-style search (Drips, iDrips, Streamer,
/// batch top-k): split the first non-leaf node with strictly the most
/// members, so refinement halves the largest remaining group. `nodes` holds
/// one node id of `forest` per bucket — AbstractPlan::nodes or an iDrips
/// arena row. Returns -1 when every node is a leaf. The tie order is part of
/// the emission contract: iDrips sessions must replay Streamer plan for
/// plan.
template <typename Nodes>
int RefinementBucket(const AbstractionForest& forest, const Nodes& nodes) {
  int best = -1;
  size_t best_members = 0;
  for (size_t b = 0; b < std::size(nodes); ++b) {
    const int node = static_cast<int>(nodes[b]);
    if (forest.is_leaf(node)) continue;
    const size_t members = forest.summary(node).members.size();
    if (members > best_members) {
      best_members = members;
      best = static_cast<int>(b);
    }
  }
  return best;
}

/// An abstract plan: one abstraction-tree node per bucket of one forest. The
/// plan represents the Cartesian product of its nodes' member sets; it is
/// concrete when every node is a leaf.
struct AbstractPlan {
  const AbstractionForest* forest = nullptr;
  std::vector<int> nodes;

  bool IsConcrete() const;

  /// The concrete plan, valid only when IsConcrete().
  ConcretePlan ToConcrete() const;

  /// Summaries of the nodes, bucket order, for UtilityModel::Evaluate.
  std::vector<const stats::StatSummary*> Summaries() const;

  /// Number of concrete plans represented.
  uint64_t NumConcretePlans() const;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_ABSTRACTION_H_
