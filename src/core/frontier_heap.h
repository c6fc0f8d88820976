#ifndef PLANORDER_CORE_FRONTIER_HEAP_H_
#define PLANORDER_CORE_FRONTIER_HEAP_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"

namespace planorder::core {

/// Indexed d-ary (d = 4) max-heap over frontier slots with lazy decrease-key
/// — the selection structure of the flat ordering core (DESIGN.md §11),
/// replacing the per-round linear rescans of the frontier.
///
/// Keys are (key1 desc, key2 desc, rank asc): upper bound, interval width and
/// creation rank for the abstract frontier; exact lower bound and rank for
/// the concrete one. Ranks reproduce the legacy vector positions (a child
/// replacing its parent in place inherits the parent's rank), so heap order
/// ties break exactly as the old index-ordered scans did.
///
/// There is no decrease-key: a slot whose bounds change (re-evaluation after
/// an emission, overwrite by a refinement child, release on emission) bumps
/// its version counter and pushes a fresh entry; entries whose stored version
/// no longer matches the slot's are dead and are skipped during Peek/Pop.
/// Versions are an eval-epoch analogue that never resets — slot reuse through
/// the arena free list cannot resurrect a stale entry. The heap compacts
/// itself when dead entries outnumber live slots enough to matter, keeping
/// Push/Pop O(log live) amortized.
///
/// Determinism: push order, versions and ranks are fixed by the algorithm;
/// ties in (key1, key2) resolve by rank, which is unique per entry, so
/// Peek/Pop order is a total order independent of the heap's internal
/// layout history.
class FrontierHeap {
 public:
  struct Entry {
    double key1 = 0.0;
    double key2 = 0.0;
    uint64_t rank = 0;
    uint32_t slot = 0;
    uint32_t version = 0;
  };

  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }

  void Push(const Entry& entry) {
    entries_.push_back(entry);
    SiftUp(entries_.size() - 1);
  }

  /// Highest live entry, or nullptr when none. `live(entry)` must return
  /// true iff the entry's version still matches its slot; dead entries found
  /// on the way are popped. The returned pointer is valid until the next
  /// mutating call.
  template <typename LiveFn>
  const Entry* Peek(const LiveFn& live) {
    while (!entries_.empty() && !live(entries_[0])) PopRoot();
    return entries_.empty() ? nullptr : &entries_[0];
  }

  /// Removes the current root (after a Peek that returned non-null).
  void PopTop() {
    PLANORDER_DCHECK(!entries_.empty());
    PopRoot();
  }

  /// Drops every entry `live` rejects. Called by the owner when dead entries
  /// accumulate (the owner knows the live-slot count; the heap does not).
  template <typename LiveFn>
  void Compact(const LiveFn& live) {
    size_t kept = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (live(entries_[i])) entries_[kept++] = entries_[i];
    }
    entries_.resize(kept);
    if (entries_.size() > 1) {
      for (size_t i = (entries_.size() - 2) / kArity + 1; i-- > 0;) {
        SiftDown(i);
      }
    }
  }

 private:
  static constexpr size_t kArity = 4;

  /// Max-heap order: key1 desc, key2 desc, rank asc (rank is unique).
  static bool Above(const Entry& a, const Entry& b) {
    if (a.key1 != b.key1) return a.key1 > b.key1;
    if (a.key2 != b.key2) return a.key2 > b.key2;
    return a.rank < b.rank;
  }

  void PopRoot() {
    entries_[0] = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) SiftDown(0);
  }

  void SiftUp(size_t i) {
    Entry e = entries_[i];
    while (i != 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Above(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void SiftDown(size_t i) {
    Entry e = entries_[i];
    const size_t n = entries_.size();
    while (true) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (Above(entries_[c], entries_[best])) best = c;
      }
      if (!Above(entries_[best], e)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  std::vector<Entry> entries_;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_FRONTIER_HEAP_H_
