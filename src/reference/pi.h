#ifndef PLANORDER_REFERENCE_PI_H_
#define PLANORDER_REFERENCE_PI_H_

#include <memory>
#include <vector>

#include "core/orderer.h"

namespace planorder::core {

/// PI, the paper's reference algorithm (Section 6): the best brute-force
/// exact orderer. It materializes every concrete plan, evaluates all of
/// them once, and after each emission re-evaluates only the plans whose
/// utility may have changed — those not independent of the emitted plan.
///
/// With use_independence=false this degrades to the naive brute force that
/// re-evaluates everything every iteration (ablation baseline).
class PiOrderer : public Orderer {
 public:
  static StatusOr<std::unique_ptr<PiOrderer>> Create(
      const stats::Workload* workload, utility::UtilityModel* model,
      std::vector<PlanSpace> spaces, bool use_independence = true);

  std::string name() const override {
    return use_independence_ ? "pi" : "naive";
  }

 protected:
  StatusOr<OrderedPlan> ComputeNext() override;
  void OnExecuted(const ConcretePlan& plan) override;

 private:
  PiOrderer(const stats::Workload* workload, utility::UtilityModel* model,
            bool use_independence)
      : Orderer(workload, model), use_independence_(use_independence) {}

  bool use_independence_;
  std::vector<ConcretePlan> plans_;
  std::vector<double> utilities_;
  std::vector<char> dirty_;
};

}  // namespace planorder::core

#endif  // PLANORDER_REFERENCE_PI_H_
