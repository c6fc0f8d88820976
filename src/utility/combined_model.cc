#include "utility/combined_model.h"

namespace planorder::utility {

StatusOr<std::unique_ptr<CombinedModel>> CombinedModel::Create(
    const stats::Workload* workload, std::vector<Component> components) {
  if (components.empty()) {
    return InvalidArgumentError("a combined measure needs components");
  }
  for (const Component& c : components) {
    if (c.model == nullptr) {
      return InvalidArgumentError("null component model");
    }
    if (!(c.weight > 0.0)) {
      return InvalidArgumentError("component weights must be positive");
    }
  }
  return std::make_unique<CombinedModel>(workload, std::move(components));
}

std::string CombinedModel::name() const {
  std::string out = "combined(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += " + ";
    out += std::to_string(components_[i].weight) + "*" +
           components_[i].model->name();
  }
  out += ")";
  return out;
}

Interval CombinedModel::Evaluate(NodeSpan nodes,
                                 const ExecutionContext& ctx) const {
  Interval total = Interval::Point(0.0);
  for (const Component& c : components_) {
    total += Interval::Point(c.weight) * c.model->Evaluate(nodes, ctx);
  }
  return total;
}

bool CombinedModel::diminishing_returns() const {
  for (const Component& c : components_) {
    if (!c.model->diminishing_returns()) return false;
  }
  return true;
}

bool CombinedModel::fully_independent() const {
  for (const Component& c : components_) {
    if (!c.model->fully_independent()) return false;
  }
  return true;
}

bool CombinedModel::Independent(const ConcretePlan& a,
                                const ConcretePlan& b) const {
  for (const Component& c : components_) {
    if (!c.model->Independent(a, b)) return false;
  }
  return true;
}

bool CombinedModel::GroupIndependentOf(NodeSpan nodes,
                                       const ConcretePlan& plan) const {
  for (const Component& c : components_) {
    if (!c.model->GroupIndependentOf(nodes, plan)) return false;
  }
  return true;
}

std::optional<ConcretePlan> CombinedModel::FindIndependentGroupPlan(
    NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const {
  // A witness must be independent under EVERY component; candidates from one
  // component are verified against the rest (sound, possibly incomplete).
  for (const Component& c : components_) {
    std::optional<ConcretePlan> candidate =
        c.model->FindIndependentGroupPlan(nodes, others);
    if (!candidate.has_value()) continue;
    bool verified = true;
    for (const ConcretePlan* other : others) {
      if (!Independent(*candidate, *other)) {
        verified = false;
        break;
      }
    }
    if (verified) return candidate;
  }
  return std::nullopt;
}

}  // namespace planorder::utility
