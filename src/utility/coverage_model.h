#ifndef PLANORDER_UTILITY_COVERAGE_MODEL_H_
#define PLANORDER_UTILITY_COVERAGE_MODEL_H_

#include "utility/model.h"

namespace planorder::utility {

/// Plan coverage (Section 2, Example 2.1): the probability that a random
/// query answer is returned by plan p and by none of the executed plans.
/// Computed exactly in the workload's region universe: the weight of p's box
/// not yet covered. Not fully monotonic; has diminishing returns (executed
/// coverage only grows), so Streamer applies.
///
/// Abstract plans evaluate to [uncovered(intersection box), uncovered(union
/// box)]: each concrete plan's box contains the groupwise intersection box
/// and is contained in the union box, and uncovered volume is monotone under
/// box inclusion, so the interval is a sound enclosure.
class CoverageModel : public UtilityModel {
 public:
  explicit CoverageModel(const stats::Workload* workload)
      : UtilityModel(workload) {}

  std::string name() const override { return "coverage"; }
  Interval Evaluate(NodeSpan nodes, const ExecutionContext& ctx) const override;
  bool diminishing_returns() const override { return true; }

  /// True when some bucket's group union mask misses `plan`'s source there:
  /// then every concrete plan of the group is box-disjoint from `plan`. On
  /// point summaries this is complete: two plans are independent exactly
  /// when their boxes are disjoint, i.e. some pair of corresponding sources
  /// does not overlap (the paper's Section 3 inference procedure).
  bool GroupIndependentOf(NodeSpan nodes,
                          const ConcretePlan& plan) const override;

  /// Exact backtracking over buckets: per bucket, each candidate source
  /// "kills" (is disjoint from) a subset of `others`; searches for a choice
  /// whose kill sets cover all of them, with a node budget (sound to give
  /// up). Returns the found witness plan.
  std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes,
      const std::vector<const ConcretePlan*>& others) const override;
};

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_COVERAGE_MODEL_H_
