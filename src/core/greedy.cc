#include "core/greedy.h"

namespace planorder::core {

StatusOr<std::unique_ptr<GreedyOrderer>> GreedyOrderer::Create(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces) {
  if (!model->fully_monotonic()) {
    return FailedPreconditionError(
        "Greedy requires a fully monotonic utility measure; '" +
        model->name() + "' is not");
  }
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  auto orderer =
      std::unique_ptr<GreedyOrderer>(new GreedyOrderer(workload, model));
  orderer->PushEntries(std::move(spaces));
  return orderer;
}

void GreedyOrderer::PushEntries(std::vector<PlanSpace> spaces) {
  // Push order is the order heap ties break by.
  for (PlanSpace& space : spaces) {
    Entry entry;
    entry.best_plan.resize(space.buckets.size());
    for (size_t b = 0; b < space.buckets.size(); ++b) {
      int best = space.buckets[b][0];
      double best_score = model().MonotoneScore(static_cast<int>(b), best);
      for (size_t i = 1; i < space.buckets[b].size(); ++i) {
        const int candidate = space.buckets[b][i];
        const double score =
            model().MonotoneScore(static_cast<int>(b), candidate);
        if (score > best_score) {
          best = candidate;
          best_score = score;
        }
      }
      entry.best_plan[b] = best;
    }
    entry.utility = Evaluate(entry.best_plan);
    entry.space = std::move(space);
    heap_.push(std::move(entry));
  }
}

StatusOr<OrderedPlan> GreedyOrderer::ComputeNext() {
  if (heap_.empty()) return NotFoundError("plan spaces exhausted");
  Entry top = heap_.top();
  heap_.pop();
  PushEntries(SplitAround(top.space, top.best_plan));
  return OrderedPlan{top.best_plan, top.utility};
}

}  // namespace planorder::core
