#ifndef PLANORDER_UTILITY_MODEL_H_
#define PLANORDER_UTILITY_MODEL_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/interval.h"
#include "base/logging.h"
#include "utility/execution_context.h"

namespace planorder::utility {

/// One StatSummary per bucket, in bucket order. Concrete plans pass point
/// summaries; abstract plans pass group summaries.
using NodeSpan = std::span<const stats::StatSummary* const>;

/// A utility measure u(p | p1..pl, Q) in the sense of Section 2: the worth of
/// plan p given that the context's executed plans have run. Higher is always
/// better; cost measures negate.
///
/// Evaluation is interval-valued so one code path serves concrete and
/// abstract plans (Section 5.1): the returned interval must contain the
/// utility of every concrete plan represented by `nodes`, and must be a point
/// when all nodes are concrete.
class UtilityModel {
 public:
  virtual ~UtilityModel() = default;

  virtual std::string name() const = 0;

  /// Utility enclosure of the (possibly abstract) plan `nodes`, conditioned
  /// on ctx.executed().
  virtual Interval Evaluate(NodeSpan nodes,
                            const ExecutionContext& ctx) const = 0;

  /// Point utility of a concrete plan (by-index form).
  double EvaluateConcrete(const ConcretePlan& plan,
                          const ExecutionContext& ctx) const;

  /// True when the measure is fully monotonic wrt the query (Section 3):
  /// every bucket admits a total source order, independent of the executed
  /// set, such that upgrading a source can only improve any plan. Enables
  /// the Greedy algorithm.
  virtual bool fully_monotonic() const { return false; }

  /// For fully monotonic measures: a per-bucket score, higher = better, such
  /// that replacing a source by a higher-scoring one improves any plan.
  /// Models that are not fully monotonic must not be asked.
  virtual double MonotoneScore(int bucket, int source) const {
    (void)bucket;
    (void)source;
    PLANORDER_CHECK(false) << name() << " is not fully monotonic";
    return 0.0;
  }

  /// True when utility-diminishing returns holds (Section 3): pushing a plan
  /// later in the ordering can never increase its utility. Required by
  /// Streamer.
  virtual bool diminishing_returns() const = 0;

  /// True when every pair of plans is independent — utilities never depend
  /// on the executed set at all. Holds for the no-caching cost measures;
  /// required by the batch top-k orderer (which sorts a single snapshot of
  /// utilities) and by stream merging across separately-ordered plan spaces.
  virtual bool fully_independent() const { return false; }

  /// The measure's one dependence rule: true only if NO concrete plan
  /// represented by `nodes` can have its utility changed by executing `plan`
  /// (sound, possibly incomplete). Every other independence question is
  /// answered through it: Streamer decides which abstract plans need
  /// re-evaluation after an emission, and the persistent iDrips fast-forwards
  /// a stale candidate, by walking the executed suffix with this test.
  virtual bool GroupIndependentOf(NodeSpan nodes,
                                  const ConcretePlan& plan) const = 0;

  /// Pairwise independence, derived: GroupIndependentOf over a's point
  /// summaries. True only if executing either plan cannot change the utility
  /// of the other (every measure's rule is symmetric on concrete plans).
  /// Used by Streamer's link recycling and by the PI baseline's
  /// recomputation filter.
  bool Independent(const ConcretePlan& a, const ConcretePlan& b) const;

  /// Existential group independence, the core of Streamer's link-validity
  /// check (Figure 5, CheckValidity): finds a concrete plan represented by
  /// `nodes` that is Independent of every plan in `others`, or nullopt.
  /// Sound; may miss (nullopt despite existence), but an empty `others`
  /// always yields a witness.
  virtual std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const = 0;

 protected:
  explicit UtilityModel(const stats::Workload* workload)
      : workload_(workload) {}

  const stats::Workload& workload() const { return *workload_; }

 private:
  static constexpr size_t kMaxConcreteBuckets = 16;

  /// Fills `nodes` with the plan's point summaries (a handful of pointers,
  /// no copies) and returns them as a span: the concrete plan in the form
  /// Evaluate and GroupIndependentOf take.
  NodeSpan PointNodes(const ConcretePlan& plan,
                      const stats::StatSummary** nodes) const;

  const stats::Workload* workload_;
};

inline NodeSpan UtilityModel::PointNodes(
    const ConcretePlan& plan, const stats::StatSummary** nodes) const {
  PLANORDER_CHECK_LE(plan.size(), kMaxConcreteBuckets);
  for (size_t b = 0; b < plan.size(); ++b) {
    nodes[b] = &workload_->summary(static_cast<int>(b), plan[b]);
  }
  return NodeSpan(nodes, plan.size());
}

inline double UtilityModel::EvaluateConcrete(const ConcretePlan& plan,
                                             const ExecutionContext& ctx) const {
  const stats::StatSummary* nodes[kMaxConcreteBuckets];
  const Interval u = Evaluate(PointNodes(plan, nodes), ctx);
  PLANORDER_DCHECK(u.is_point())
      << name() << " returned non-point utility for a concrete plan";
  return u.lo();
}

inline bool UtilityModel::Independent(const ConcretePlan& a,
                                      const ConcretePlan& b) const {
  PLANORDER_CHECK_EQ(a.size(), b.size());
  const stats::StatSummary* nodes[kMaxConcreteBuckets];
  return GroupIndependentOf(PointNodes(a, nodes), b);
}

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_MODEL_H_
