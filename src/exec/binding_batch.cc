#include "exec/binding_batch.h"

#include "base/logging.h"

namespace planorder::exec {

bool BindingBatch::Add(std::vector<datalog::Term> values) {
  PLANORDER_CHECK(values.size() == positions_.size());
  const size_t hash = datalog::TermVectorHash()(values);
  auto [first, last] = index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (combinations_[it->second] == values) return false;
  }
  index_.emplace(hash, combinations_.size());
  combinations_.push_back(std::move(values));
  return true;
}

BindingBatch BindingBatch::Slice(size_t lo, size_t hi) const {
  PLANORDER_CHECK(lo <= hi && hi <= combinations_.size());
  BindingBatch slice(positions_);
  for (size_t i = lo; i < hi; ++i) slice.Add(combinations_[i]);
  return slice;
}

}  // namespace planorder::exec
