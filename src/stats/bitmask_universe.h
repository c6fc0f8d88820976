#ifndef PLANORDER_STATS_BITMASK_UNIVERSE_H_
#define PLANORDER_STATS_BITMASK_UNIVERSE_H_

#include <cstdint>
#include <vector>

#include "stats/source_stats.h"

namespace planorder::stats {

/// The compiled, query-optimized form of the coverage universe (DESIGN.md
/// §11): same semantics as the cell-set CoverageUniverse — weight of a box's
/// cells not yet covered by any executed box — but organized so the residual
/// query costs O(covered/uncovered boundary) instead of O(cells in the box).
/// CoverageUniverse is the test oracle (src/reference/, outside the
/// production libraries); this class is the one the ordering core runs.
///
/// The ordering core is residual-query bound: the persistent iDrips frontier
/// performs ~160 evaluations per emission and each evaluation is one or two
/// residual queries, while boxes are *added* only once per emission. Measured
/// on bench_core, the flat cell walk visits ~313 cells per evaluation yet
/// finds on average 0.07 uncovered regions per visited cell: almost all of
/// the walk re-proves that already-covered cells are still covered. This
/// class stores what that walk recomputes.
///
/// Layout — a radix trie over the dimensions kept as flat arrays (one
/// uint64_t mask per node, no pointers):
///  - level d holds one node per cell prefix over dimensions 0..d-1, indexed
///    by the flattened prefix (row-major, dimension 0 outermost);
///  - full_[d][prefix] has bit r set iff *every* cell under prefix+r is
///    covered; any_[d][prefix] has bit r set iff *some* cell under it is;
///  - at the deepest level (d = m-1) both collapse to the per-cell covered
///    mask over the last dimension — exactly the cell-set layout.
///
/// The residual query recurses only into subtrees that are partially
/// covered: fully covered subtrees contribute exactly 0.0 and are skipped
/// with one AND; fully uncovered subtrees contribute their box volume in
/// closed form (mask weight times the product of the remaining dimensions'
/// mask weights) without visiting a single cell. Early in an ordering run
/// nothing is covered and a query is O(m); late in a run nearly everything
/// is covered and the walk touches only the shrinking uncovered boundary.
///
/// Mask weights are summed through a per-dimension byte-chunk table
/// (weighted popcount: 8 table lookups instead of up to 64 count-trailing-
/// zeros iterations). Summation and recursion orders are fixed by the data
/// (ascending regions, ascending prefixes), never by thread count or
/// allocation order, so results are byte-identical across serial and
/// parallel runs — the determinism contract of DESIGN.md §6. Floating-point
/// grouping differs from CoverageUniverse's flat walk (closed forms multiply
/// where the walk adds per cell), so the two implementations agree to
/// rounding, not bit-for-bit; tests/coverage_bitmask_test.cc pins the
/// equivalence differentially.
class BitmaskUniverse {
 public:
  /// Upper bound on dimensions (matches the plan-width bound of
  /// utility::UtilityModel::EvaluateConcrete's stack buffers).
  static constexpr int kMaxDims = 16;

  /// `region_weights[b]` holds bucket b's region weights (1..64 per bucket,
  /// must sum to ~1; not enforced so tests can use unnormalized weights).
  explicit BitmaskUniverse(std::vector<std::vector<double>> region_weights);

  int num_dimensions() const { return static_cast<int>(weights_.size()); }
  int regions_in(int dimension) const {
    return static_cast<int>(weights_[dimension].size());
  }

  /// Total weight of the box (ignoring covered state).
  double BoxVolume(const RegionMask* box) const;
  double BoxVolume(const std::vector<RegionMask>& box) const;

  /// Weight of the box cells not yet covered by any executed box: the
  /// conditional coverage of a plan whose per-bucket region sets are `box`.
  /// `box` must hold num_dimensions() masks.
  double UncoveredBoxVolume(const RegionMask* box) const;
  double UncoveredBoxVolume(const std::vector<RegionMask>& box) const;

  /// Marks every cell of `box` covered (an executed plan).
  void AddBox(const RegionMask* box);
  void AddBox(const std::vector<RegionMask>& box);

  /// Forgets all executed boxes.
  void Clear();

  /// Number of boxes marked covered since construction / Clear().
  int64_t num_covered_boxes() const { return num_boxes_; }

  /// Sum of weights of the regions in `mask` along `dimension`.
  double MaskWeight(int dimension, RegionMask mask) const;

 private:
  double Residual(int d, size_t prefix, double prefix_weight,
                  const RegionMask* box, const double* suffix_volume) const;
  void Cover(int d, size_t prefix, const RegionMask* box);

  std::vector<std::vector<double>> weights_;
  /// weight_lut_[d][c * 256 + byte]: summed weight of `byte`'s set bits
  /// within dimension d's byte chunk c (the weighted-popcount table).
  std::vector<std::vector<double>> weight_lut_;
  /// All declared regions of dimension d (the low regions_in(d) bits).
  uint64_t valid_[kMaxDims] = {};
  /// Trie levels; full_[d]/any_[d] are indexed by the flattened cell prefix
  /// over dimensions 0..d-1 and hold masks over dimension d's regions. At
  /// d = m-1 only full_ is kept (any_ would be identical: one cell each).
  std::vector<std::vector<uint64_t>> full_;
  std::vector<std::vector<uint64_t>> any_;
  /// Per-dimension union / intersection of the executed boxes' masks — the
  /// disjointness / containment fast paths shared with CoverageUniverse.
  /// intersection is meaningful only when num_boxes_ > 0.
  uint64_t covered_union_[kMaxDims] = {};
  uint64_t covered_intersection_[kMaxDims] = {};
  int64_t num_boxes_ = 0;
};

}  // namespace planorder::stats

#endif  // PLANORDER_STATS_BITMASK_UNIVERSE_H_
