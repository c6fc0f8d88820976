#ifndef PLANORDER_REFERENCE_COVERAGE_UNIVERSE_H_
#define PLANORDER_REFERENCE_COVERAGE_UNIVERSE_H_

#include <vector>

#include "stats/source_stats.h"

namespace planorder::stats {

/// The probabilistic coverage universe of a query with m subgoals.
///
/// Each subgoal's domain is partitioned into weighted regions (weights sum to
/// one per dimension). The answers a plan can return form the *box* that is
/// the product of its sources' region sets; the weight of a cell is the
/// product of its per-dimension region weights, i.e. the probability that a
/// random query answer falls in that cell. Plan coverage conditioned on the
/// executed plans (Section 2, Example 2.1) is then the weight of the plan's
/// box minus the cells already covered — which this class maintains
/// incrementally as plans execute.
///
/// Layout: covered cells are stored as a flat array over the first m-1
/// dimensions whose entries are 64-bit masks over the last dimension, so the
/// inner loop of both queries is a handful of bitwise ops.
class CoverageUniverse {
 public:
  /// `region_weights[b]` holds bucket b's region weights (size <= 64, must
  /// sum to ~1; not enforced so tests can use unnormalized weights).
  explicit CoverageUniverse(std::vector<std::vector<double>> region_weights);

  int num_dimensions() const { return static_cast<int>(weights_.size()); }
  int regions_in(int dimension) const {
    return static_cast<int>(weights_[dimension].size());
  }

  /// Total weight of the box (ignoring covered state).
  double BoxVolume(const std::vector<RegionMask>& box) const;

  /// Weight of the box cells not yet covered by any executed box: the
  /// conditional coverage of a plan whose per-bucket region sets are `box`.
  ///
  /// Fast paths (DESIGN.md §6) avoid the cell enumeration entirely when
  ///  - nothing has executed yet (the common first-emission case),
  ///  - the box is disjoint from every executed box in some dimension, or
  ///  - the box lies inside every executed box in all dimensions (-> 0);
  /// and the enumeration itself skips zero-weight prefix subtrees, whose
  /// cells contribute exactly nothing.
  double UncoveredBoxVolume(const std::vector<RegionMask>& box) const;

  /// Marks every cell of `box` covered (an executed plan).
  void AddBox(const std::vector<RegionMask>& box);

  /// Forgets all executed boxes.
  void Clear();

  /// Number of boxes marked covered since construction / Clear().
  int64_t num_covered_boxes() const { return num_boxes_; }

  /// Sum of weights of the regions in `mask` along `dimension`.
  double MaskWeight(int dimension, RegionMask mask) const;

 private:
  size_t FlatSize() const;

  std::vector<std::vector<double>> weights_;
  /// covered_[flat index over dims 0..m-2] = mask over dim m-1.
  std::vector<uint64_t> covered_;
  /// Per-dimension union / intersection of the executed boxes' masks, the
  /// keys to the disjointness and containment fast paths. intersection is
  /// meaningful only when num_boxes_ > 0.
  std::vector<uint64_t> covered_union_;
  std::vector<uint64_t> covered_intersection_;
  int64_t num_boxes_ = 0;
};

}  // namespace planorder::stats

#endif  // PLANORDER_REFERENCE_COVERAGE_UNIVERSE_H_
