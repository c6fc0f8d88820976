#ifndef PLANORDER_UTILITY_COMBINED_MODEL_H_
#define PLANORDER_UTILITY_COMBINED_MODEL_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "utility/model.h"

namespace planorder::utility {

/// The weighted-combination utility of Example 1.2:
///   u(p) = alpha * coverage(p) + beta * cost-utility(p)
/// generalized to any weighted sum of component measures (weights must be
/// positive; components are already "higher is better", so cost components
/// contribute their negated cost).
///
/// Property composition is conservative:
///  - interval evaluation: weighted sum of the component intervals (a sound
///    enclosure of the weighted sum);
///  - diminishing returns holds iff it holds for every component;
///  - full independence likewise; two plans are independent only if every
///    component deems them independent;
///  - full monotonicity is NOT claimed even if all components are monotonic
///    (their per-bucket orders may disagree).
class CombinedModel : public UtilityModel {
 public:
  struct Component {
    UtilityModel* model;  // not owned; must outlive the combination
    double weight = 1.0;
  };

  /// Validates weights (> 0) and a non-empty component list over a common
  /// workload.
  static StatusOr<std::unique_ptr<CombinedModel>> Create(
      const stats::Workload* workload, std::vector<Component> components);

  std::string name() const override;
  Interval Evaluate(NodeSpan nodes, const ExecutionContext& ctx) const override;
  bool diminishing_returns() const override;
  bool fully_independent() const override;
  bool Independent(const ConcretePlan& a,
                   const ConcretePlan& b) const override;
  bool GroupIndependentOf(NodeSpan nodes,
                          const ConcretePlan& plan) const override;
  std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes,
      const std::vector<const ConcretePlan*>& others) const override;

  CombinedModel(const stats::Workload* workload,
                std::vector<Component> components)
      : UtilityModel(workload), components_(std::move(components)) {}

 private:
  std::vector<Component> components_;
};

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_COMBINED_MODEL_H_
