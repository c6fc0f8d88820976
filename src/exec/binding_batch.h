#ifndef PLANORDER_EXEC_BINDING_BATCH_H_
#define PLANORDER_EXEC_BINDING_BATCH_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/term.h"

namespace planorder::exec {

/// The payload of one batched source call — the semi-join of cost measure
/// (2), "feed the titles into V_j": a set of bound argument positions and
/// the *distinct* value combinations over it, in first-insertion order.
///
/// Every batched call (AccessibleSource::FetchBatch, BatchFetcher::Fetch,
/// runtime::RemoteSource::FetchBatch and the runtime::SourceResultCache
/// protocol) takes this one type, so a batch cannot mix position sets or
/// repeat a combination. The positions must be strictly increasing and lie
/// inside the source's arity; AccessibleSource::FetchBatch rejects a batch
/// whose positions are not.
class BindingBatch {
 public:
  BindingBatch() = default;
  explicit BindingBatch(std::vector<int> positions)
      : positions_(std::move(positions)) {}

  const std::vector<int>& positions() const { return positions_; }
  /// The distinct combinations, each holding one value per position in
  /// position order.
  const std::vector<std::vector<datalog::Term>>& combinations() const {
    return combinations_;
  }
  size_t size() const { return combinations_.size(); }
  bool empty() const { return combinations_.empty(); }

  /// Appends `values` (one per position, in position order) unless an equal
  /// combination is already held. Returns true when it was new. A batch over
  /// no positions holds at most the one empty combination: a full scan.
  bool Add(std::vector<datalog::Term> values);

  /// Combinations [lo, hi) over the same positions, in order.
  BindingBatch Slice(size_t lo, size_t hi) const;

  friend bool operator==(const BindingBatch& a, const BindingBatch& b) {
    return a.positions_ == b.positions_ && a.combinations_ == b.combinations_;
  }
  friend bool operator<(const BindingBatch& a, const BindingBatch& b) {
    if (a.positions_ != b.positions_) return a.positions_ < b.positions_;
    return a.combinations_ < b.combinations_;
  }

 private:
  std::vector<int> positions_;
  std::vector<std::vector<datalog::Term>> combinations_;
  /// Combination hash -> index into combinations_, for Add's dedup.
  // detlint: order-insensitive(keyed probe only; combinations_ keeps order)
  std::unordered_multimap<size_t, size_t> index_;
};

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_BINDING_BATCH_H_
