#ifndef PLANORDER_UTILITY_MODEL_H_
#define PLANORDER_UTILITY_MODEL_H_

#include <optional>
#include <span>
#include <string>

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

  /// Sound (possibly incomplete) independence test: true only if executing
  /// either plan cannot change the utility of the other. Used by Streamer's
  /// link recycling and by the PI baseline's recomputation filter.
  virtual bool Independent(const ConcretePlan& a,
                           const ConcretePlan& b) const = 0;

  /// Group-level independence: true only if NO concrete plan represented by
  /// `nodes` can have its utility changed by executing `plan`. Streamer uses
  /// this to decide which abstract plans need re-evaluation after an
  /// emission. The default is maximally conservative (always dependent).
  virtual bool GroupIndependentOf(NodeSpan nodes,
                                  const ConcretePlan& plan) const {
    (void)nodes;
    (void)plan;
    return false;
  }

  /// Batched form of GroupIndependentOf (DESIGN.md §11): when both key
  /// methods return true, the group is independent of the plan iff
  /// `keys_g[b] & keys_p[b] == 0` for SOME bucket b — a few word-ANDs
  /// instead of a virtual call per (candidate, emission) pair, which is what
  /// the persistent frontier's staleness scan performs millions of times per
  /// drain. A model that can express its GroupIndependentOf this way fills
  /// `keys[0..nodes.size())` and returns true; the default declines and
  /// callers fall back to the virtual test. Returning keys is a promise of
  /// exact agreement with GroupIndependentOf, not an approximation — the
  /// scan's outcome decides which utilities are re-evaluated, so a mismatch
  /// would change evaluation counts.
  virtual bool IndependenceKeys(NodeSpan nodes, uint64_t* keys) const {
    (void)nodes;
    (void)keys;
    return false;
  }

  /// Key form of an executed plan, matched against IndependenceKeys above.
  virtual bool PlanIndependenceKeys(const ConcretePlan& plan,
                                    uint64_t* keys) const {
    (void)plan;
    (void)keys;
    return false;
  }

  /// Existential group independence, the core of Streamer's link-validity
  /// check (Figure 5, CheckValidity): finds a concrete plan represented by
  /// `nodes` that is independent of every plan in `others`, or nullopt.
  /// Sound; may miss (nullopt despite existence). The default enumerates up
  /// to a small budget of concrete plans.
  virtual std::optional<ConcretePlan> FindIndependentGroupPlan(
      NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const;

  /// Convenience wrapper over FindIndependentGroupPlan.
  bool GroupContainsIndependentPlan(
      NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const {
    return FindIndependentGroupPlan(nodes, others).has_value();
  }

 protected:
  explicit UtilityModel(const stats::Workload* workload)
      : workload_(workload) {}

  const stats::Workload& workload() const { return *workload_; }

 private:
  const stats::Workload* workload_;
};

inline std::optional<ConcretePlan> UtilityModel::FindIndependentGroupPlan(
    NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const {
  // Enumerate concrete plans of the group up to a budget; sound to give up.
  constexpr int kBudget = 512;
  ConcretePlan candidate(nodes.size());
  std::vector<size_t> cursor(nodes.size(), 0);
  int tried = 0;
  while (tried < kBudget) {
    for (size_t b = 0; b < nodes.size(); ++b) {
      candidate[b] = nodes[b]->members[cursor[b]];
    }
    bool independent_of_all = true;
    for (const ConcretePlan* other : others) {
      if (!Independent(candidate, *other)) {
        independent_of_all = false;
        break;
      }
    }
    if (independent_of_all) return candidate;
    ++tried;
    // Odometer increment over member sets.
    size_t b = 0;
    for (; b < nodes.size(); ++b) {
      if (++cursor[b] < nodes[b]->members.size()) break;
      cursor[b] = 0;
    }
    if (b == nodes.size()) return std::nullopt;  // exhausted the group
  }
  return std::nullopt;
}

inline double UtilityModel::EvaluateConcrete(const ConcretePlan& plan,
                                             const ExecutionContext& ctx) const {
  // Assemble the plan's point summaries; a handful of pointers, no copies.
  const stats::StatSummary* nodes[16];
  PLANORDER_CHECK_LE(plan.size(), size_t{16});
  for (size_t b = 0; b < plan.size(); ++b) {
    nodes[b] = &workload_->summary(static_cast<int>(b), plan[b]);
  }
  const Interval u = Evaluate(NodeSpan(nodes, plan.size()), ctx);
  PLANORDER_DCHECK(u.is_point())
      << name() << " returned non-point utility for a concrete plan";
  return u.lo();
}

}  // namespace planorder::utility

#endif  // PLANORDER_UTILITY_MODEL_H_
