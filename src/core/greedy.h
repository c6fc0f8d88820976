#ifndef PLANORDER_CORE_GREEDY_H_
#define PLANORDER_CORE_GREEDY_H_

#include <memory>
#include <queue>
#include <vector>

#include "core/orderer.h"

namespace planorder::core {

/// The Greedy algorithm (Section 4). Requires a fully monotonic utility
/// measure: each bucket has a total source order such that upgrading a
/// source improves any plan, regardless of the executed set. The best plan
/// of a plan space is then the per-bucket best sources; emission removes it
/// by recursive splitting (Figure 2) and the split spaces' best plans enter
/// a max-heap. Finding each of the first k plans is O(m) heap work plus
/// O(m^2) split spaces, matching the paper's O(m n^2 k^2) overall bound.
class GreedyOrderer : public Orderer {
 public:
  /// Fails unless `model` is fully monotonic. `spaces` must share the
  /// workload's bucket structure.
  static StatusOr<std::unique_ptr<GreedyOrderer>> Create(
      const stats::Workload* workload, utility::UtilityModel* model,
      std::vector<PlanSpace> spaces);

  std::string name() const override { return "greedy"; }

 protected:
  StatusOr<OrderedPlan> ComputeNext() override;

 private:
  struct Entry {
    PlanSpace space;
    ConcretePlan best_plan;
    double utility;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.utility < b.utility;
    }
  };

  GreedyOrderer(const stats::Workload* workload, utility::UtilityModel* model)
      : Orderer(workload, model) {}

  /// Builds the heap entries for a batch of spaces (per-bucket argmax of
  /// MonotoneScore plus one concrete evaluation each) and pushes them in
  /// index order.
  void PushEntries(std::vector<PlanSpace> spaces);

  std::priority_queue<Entry, std::vector<Entry>, EntryLess> heap_;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_GREEDY_H_
