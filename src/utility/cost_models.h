#ifndef PLANORDER_UTILITY_COST_MODELS_H_
#define PLANORDER_UTILITY_COST_MODELS_H_

#include <memory>

#include "base/status.h"
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

/// Options for the bound-join cost family (measure (2) of Section 3 and its
/// Section 6 variants).
struct BoundJoinOptions {
  /// Divide each term by (1 - f): expected cost when an access fails with
  /// probability f and is retried (the "cost with probability of source
  /// failure" measure).
  bool include_failure = false;
  /// Zero the cost of source operations whose results are cached by an
  /// executed plan. Breaks diminishing returns (a later plan can get
  /// cheaper), so Streamer refuses models with this set.
  bool use_cache = false;
  /// Declare that transmission costs are uniform across sources, which makes
  /// measure (2) fully monotonic (Section 3). Verified against the workload
  /// at construction. Incompatible with include_failure and use_cache.
  bool assume_uniform_alpha = false;
  /// Price items by the monetary fee instead of the transmission cost and
  /// report average monetary cost per output tuple:
  /// u(p) = -Cost(p) / NumOutputTuples(p) (the fourth Section 6 measure).
  bool per_tuple_monetary = false;
};

/// Cost measure (2) of Section 3 generalized to m subgoals, evaluated
/// left-to-right with bound joins: the first source ships its n_1 answers;
/// source b ships the estimated join result n_b · t_{b-1} / N_b of its n_b
/// tuples with the t_{b-1} bindings flowing in. cost(p) = Σ_b (h + α_b · t_b),
/// optionally with failure retries, operation caching, and the
/// monetary-per-tuple transform (see BoundJoinOptions).
class BoundJoinCostModel : public UtilityModel {
 public:
  /// Validates `options` against the workload (e.g. uniform-α claims).
  static StatusOr<std::unique_ptr<BoundJoinCostModel>> Create(
      const stats::Workload* workload, const BoundJoinOptions& options);

  std::string name() const override;
  Interval Evaluate(NodeSpan nodes, const ExecutionContext& ctx) const override;
  bool fully_monotonic() const override {
    return options_.assume_uniform_alpha;
  }
  double MonotoneScore(int bucket, int source) const override;
  bool diminishing_returns() const override { return !options_.use_cache; }
  bool fully_independent() const override { return !options_.use_cache; }
  bool GroupIndependentOf(NodeSpan nodes,
                          const ConcretePlan& plan) const override;
  std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes,
      const std::vector<const ConcretePlan*>& others) const override;

  BoundJoinCostModel(const stats::Workload* workload,
                     const BoundJoinOptions& options)
      : UtilityModel(workload), options_(options) {}

 private:
  BoundJoinOptions options_;
};

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_COST_MODELS_H_
