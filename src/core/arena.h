#ifndef PLANORDER_CORE_ARENA_H_
#define PLANORDER_CORE_ARENA_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"

namespace planorder::core {

/// Slot-addressed pool of fixed-width plan rows — the storage layer of the
/// flat ordering core (DESIGN.md §11).
///
/// A row is one plan: `width` uint32_t abstraction-forest node ids, bucket
/// order. The frontier's per-candidate metadata (utility bounds, epochs,
/// ranks) lives in parallel arrays indexed by the same slot id, so the whole
/// frontier is a handful of contiguous arrays instead of a vector of
/// heap-allocated objects: refinement overwrites a parent row in place,
/// emission pushes the winner's slot onto an intrusive free list (the next
/// pointer reuses the row's first cell — no side allocation), and the next
/// Allocate() pops it in LIFO order.
///
/// Determinism: slots are allocated and released in an order fixed by the
/// algorithm, so slot ids — and everything keyed by them — are identical
/// across runs. An arena belongs to one orderer and is not thread-safe.
class PlanArena {
 public:
  /// Null slot / end-of-free-list sentinel.
  static constexpr uint32_t kNone = 0xffffffffu;

  PlanArena() = default;

  /// Drops every row and fixes the row width (buckets per plan).
  void Reset(int width) {
    PLANORDER_CHECK_GT(width, 0);
    width_ = static_cast<size_t>(width);
    cells_.clear();
    num_slots_ = 0;
    num_live_ = 0;
    free_head_ = kNone;
  }

  int width() const { return static_cast<int>(width_); }

  /// Slots ever allocated (live + free). Parallel metadata arrays are sized
  /// to this; slot ids are always < num_slots().
  uint32_t num_slots() const { return num_slots_; }

  /// Currently live rows.
  uint32_t num_live() const { return num_live_; }

  /// Returns a row to write, reusing the most recently released slot if any
  /// (LIFO keeps the hot end of the arrays hot). The row contents are
  /// unspecified until written.
  uint32_t Allocate() {
    uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = cells_[static_cast<size_t>(slot) * width_];
    } else {
      slot = num_slots_++;
      cells_.resize(static_cast<size_t>(num_slots_) * width_);
    }
    ++num_live_;
    return slot;
  }

  /// Releases a live row. The slot id stays valid as an index (metadata such
  /// as heap version counters must survive reuse); only the row cells are
  /// repurposed for the free-list link.
  void Release(uint32_t slot) {
    PLANORDER_DCHECK(slot < num_slots_);
    cells_[static_cast<size_t>(slot) * width_] = free_head_;
    free_head_ = slot;
    --num_live_;
  }

  uint32_t* row(uint32_t slot) {
    return cells_.data() + static_cast<size_t>(slot) * width_;
  }
  const uint32_t* row(uint32_t slot) const {
    return cells_.data() + static_cast<size_t>(slot) * width_;
  }

 private:
  size_t width_ = 1;
  /// num_slots_ * width_ node ids; released rows hold the free-list link in
  /// their first cell.
  std::vector<uint32_t> cells_;
  uint32_t num_slots_ = 0;
  uint32_t num_live_ = 0;
  uint32_t free_head_ = kNone;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_ARENA_H_
