#include "reference/coverage_universe.h"

#include "base/logging.h"

namespace planorder::stats {

CoverageUniverse::CoverageUniverse(
    std::vector<std::vector<double>> region_weights)
    : weights_(std::move(region_weights)) {
  PLANORDER_CHECK(!weights_.empty());
  for (const auto& w : weights_) {
    PLANORDER_CHECK(!w.empty() && w.size() <= 64)
        << "between 1 and 64 regions per bucket";
  }
  covered_.assign(FlatSize(), 0);
  covered_union_.assign(weights_.size(), 0);
  covered_intersection_.assign(weights_.size(), ~uint64_t{0});
}

size_t CoverageUniverse::FlatSize() const {
  size_t size = 1;
  for (size_t d = 0; d + 1 < weights_.size(); ++d) size *= weights_[d].size();
  return size;
}

double CoverageUniverse::MaskWeight(int dimension, RegionMask mask) const {
  double total = 0.0;
  uint64_t bits = mask.bits;
  while (bits != 0) {
    int r = __builtin_ctzll(bits);
    bits &= bits - 1;
    PLANORDER_DCHECK(r < static_cast<int>(weights_[dimension].size()));
    total += weights_[dimension][r];
  }
  return total;
}

double CoverageUniverse::BoxVolume(const std::vector<RegionMask>& box) const {
  PLANORDER_CHECK_EQ(box.size(), weights_.size());
  double volume = 1.0;
  for (size_t d = 0; d < box.size(); ++d) {
    volume *= MaskWeight(static_cast<int>(d), box[d]);
  }
  return volume;
}

double CoverageUniverse::UncoveredBoxVolume(
    const std::vector<RegionMask>& box) const {
  PLANORDER_CHECK_EQ(box.size(), weights_.size());
  const int m = num_dimensions();
  const int last = m - 1;
  if (num_boxes_ == 0) return BoxVolume(box);
  bool contained_everywhere = true;
  for (int d = 0; d < m; ++d) {
    // Disjoint from the union of executed masks in any one dimension means
    // no cell of the box can be covered.
    if ((box[d].bits & covered_union_[static_cast<size_t>(d)]) == 0) {
      return BoxVolume(box);
    }
    if ((box[d].bits & ~covered_intersection_[static_cast<size_t>(d)]) != 0) {
      contained_everywhere = false;
    }
  }
  // Inside every executed box's mask in every dimension: already any single
  // executed box covers all of this box's cells.
  if (contained_everywhere) return 0.0;
  // Iterate the cells of the box over dims 0..m-2; for each, subtract the
  // covered regions from the last dimension's mask and sum the survivors.
  double total = 0.0;
  std::vector<uint64_t> remaining(last); // bits of box[d] not yet visited
  std::vector<double> prefix(last + 1);  // product of weights of chosen regions
  prefix[0] = 1.0;

  int d = 0;
  if (last == 0) {
    // Single-subgoal query: one flat entry.
    uint64_t bits = box[0].bits & ~covered_[0];
    return MaskWeight(0, RegionMask{bits});
  }
  remaining[0] = box[0].bits;
  size_t flat = 0;
  std::vector<size_t> stride(last);
  stride[last - 1] = 1;
  for (int i = last - 2; i >= 0; --i) {
    stride[i] = stride[i + 1] * weights_[i + 1].size();
  }
  std::vector<size_t> flat_prefix(last + 1, 0);
  while (true) {
    if (remaining[d] == 0) {
      if (d == 0) break;
      --d;
      continue;
    }
    int r = __builtin_ctzll(remaining[d]);
    remaining[d] &= remaining[d] - 1;
    prefix[d + 1] = prefix[d] * weights_[d][r];
    // Every cell under a zero-weight prefix contributes exactly 0; skip the
    // whole subtree (or, at the innermost level, the covered-mask lookup).
    if (prefix[d + 1] == 0.0) continue;
    flat_prefix[d + 1] = flat_prefix[d] + static_cast<size_t>(r) * stride[d];
    if (d == last - 1) {
      flat = flat_prefix[d + 1];
      uint64_t bits = box[last].bits & ~covered_[flat];
      if (bits != 0) {
        total += prefix[d + 1] * MaskWeight(last, RegionMask{bits});
      }
    } else {
      ++d;
      remaining[d] = box[d].bits;
    }
  }
  return total;
}

void CoverageUniverse::AddBox(const std::vector<RegionMask>& box) {
  PLANORDER_CHECK_EQ(box.size(), weights_.size());
  const int m = num_dimensions();
  const int last = m - 1;
  ++num_boxes_;
  for (int d = 0; d < m; ++d) {
    covered_union_[static_cast<size_t>(d)] |= box[d].bits;
    covered_intersection_[static_cast<size_t>(d)] &= box[d].bits;
  }
  if (last == 0) {
    covered_[0] |= box[0].bits;
    return;
  }
  std::vector<uint64_t> remaining(last);
  std::vector<size_t> stride(last);
  stride[last - 1] = 1;
  for (int i = last - 2; i >= 0; --i) {
    stride[i] = stride[i + 1] * weights_[i + 1].size();
  }
  std::vector<size_t> flat_prefix(last + 1, 0);
  int d = 0;
  remaining[0] = box[0].bits;
  while (true) {
    if (remaining[d] == 0) {
      if (d == 0) break;
      --d;
      continue;
    }
    int r = __builtin_ctzll(remaining[d]);
    remaining[d] &= remaining[d] - 1;
    flat_prefix[d + 1] = flat_prefix[d] + static_cast<size_t>(r) * stride[d];
    if (d == last - 1) {
      covered_[flat_prefix[d + 1]] |= box[last].bits;
    } else {
      ++d;
      remaining[d] = box[d].bits;
    }
  }
}

void CoverageUniverse::Clear() {
  covered_.assign(covered_.size(), 0);
  covered_union_.assign(weights_.size(), 0);
  covered_intersection_.assign(weights_.size(), ~uint64_t{0});
  num_boxes_ = 0;
}

}  // namespace planorder::stats
