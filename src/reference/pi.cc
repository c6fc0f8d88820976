#include "reference/pi.h"

#include "reference/enumerate.h"

namespace planorder::core {

StatusOr<std::unique_ptr<PiOrderer>> PiOrderer::Create(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, bool use_independence) {
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  auto orderer = std::unique_ptr<PiOrderer>(
      new PiOrderer(workload, model, use_independence));
  for (const PlanSpace& space : spaces) {
    std::vector<ConcretePlan> plans = EnumeratePlans(space);
    orderer->plans_.insert(orderer->plans_.end(),
                           std::make_move_iterator(plans.begin()),
                           std::make_move_iterator(plans.end()));
  }
  orderer->utilities_.resize(orderer->plans_.size(), 0.0);
  orderer->dirty_.assign(orderer->plans_.size(), 1);
  return orderer;
}

StatusOr<OrderedPlan> PiOrderer::ComputeNext() {
  if (plans_.empty()) return NotFoundError("plan spaces exhausted");
  size_t best = plans_.size();
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (dirty_[i]) {
      utilities_[i] = Evaluate(plans_[i]);
      dirty_[i] = 0;
    }
    if (best == plans_.size() || utilities_[i] > utilities_[best]) best = i;
  }
  OrderedPlan result{std::move(plans_[best]), utilities_[best]};
  plans_[best] = std::move(plans_.back());
  utilities_[best] = utilities_.back();
  dirty_[best] = dirty_.back();
  plans_.pop_back();
  utilities_.pop_back();
  dirty_.pop_back();
  return result;
}

void PiOrderer::OnExecuted(const ConcretePlan& plan) {
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (!use_independence_ || !model().Independent(plans_[i], plan)) {
      dirty_[i] = 1;
    }
  }
}

}  // namespace planorder::core
