#ifndef PLANORDER_UTILITY_COST_MODELS_H_
#define PLANORDER_UTILITY_COST_MODELS_H_

#include <memory>

#include "base/status.h"
#include "utility/measures.h"
#include "utility/model.h"

namespace planorder::utility {

/// Cost measure (1) of Section 3: cost(p) = Σ_b (h + α_b · n_b); every term
/// depends only on its own source, so the measure is fully monotonic and
/// Greedy applies. Utility is the negated cost.
class AdditiveCostModel : public UtilityModel {
 public:
  explicit AdditiveCostModel(const stats::Workload* workload)
      : UtilityModel(workload) {}

  std::string name() const override { return "additive-cost"; }
  Interval Evaluate(NodeSpan nodes, const ExecutionContext& ctx) const override;
  bool fully_monotonic() const override { return true; }
  double MonotoneScore(int bucket, int source) const override;
  bool diminishing_returns() const override { return true; }
  bool fully_independent() const override { return true; }
  bool GroupIndependentOf(NodeSpan nodes,
                          const ConcretePlan& plan) const override {
    (void)nodes;
    (void)plan;
    return true;
  }
  std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes,
      const std::vector<const ConcretePlan*>& others) const override {
    (void)others;
    ConcretePlan any(nodes.size());
    for (size_t b = 0; b < nodes.size(); ++b) any[b] = nodes[b]->members[0];
    return any;
  }
};

/// Cost measure (2) of Section 3 generalized to m subgoals, evaluated
/// left-to-right with bound joins: the first source ships its n_1 answers;
/// source b ships the estimated join result n_b · t_{b-1} / N_b of its n_b
/// tuples with the t_{b-1} bindings flowing in. cost(p) = Σ_b (h + α_b · t_b).
/// The measure kind picks the Section 6 variant:
/// - kCost2: measure (2) as stated;
/// - kCost2UniformAlpha: measure (2) over uniform transmission costs, which
///   makes it fully monotonic (Section 3);
/// - kFailureNoCache / kFailureCache: each term divided by (1 - f), the
///   expected cost when an access fails with probability f and is retried;
/// - kMonetary / kMonetaryCache: items priced by the monetary fee, and the
///   cost reported per output tuple, u(p) = -Cost(p) / NumOutputTuples(p).
/// The *Cache variants zero the cost of source operations an executed plan
/// cached, which breaks diminishing returns (a later plan can get cheaper),
/// so Streamer refuses them.
class BoundJoinCostModel : public UtilityModel {
 public:
  /// kInvalidArgument unless `kind` is one of the six bound-join measures;
  /// kFailedPrecondition for kCost2UniformAlpha over a workload whose
  /// transmission costs vary within a bucket.
  static StatusOr<std::unique_ptr<BoundJoinCostModel>> Create(
      const stats::Workload* workload, MeasureKind kind);

  std::string name() const override;
  Interval Evaluate(NodeSpan nodes, const ExecutionContext& ctx) const override;
  bool fully_monotonic() const override { return uniform_alpha_; }
  double MonotoneScore(int bucket, int source) const override;
  bool diminishing_returns() const override { return !use_cache_; }
  bool fully_independent() const override { return !use_cache_; }
  bool GroupIndependentOf(NodeSpan nodes,
                          const ConcretePlan& plan) const override;
  std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes,
      const std::vector<const ConcretePlan*>& others) const override;

 private:
  BoundJoinCostModel(const stats::Workload* workload, MeasureKind kind);

  // Read from the kind once, so Evaluate tests flags.
  const bool uniform_alpha_;
  const bool include_failure_;
  const bool use_cache_;
  const bool per_tuple_monetary_;
};

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_COST_MODELS_H_
