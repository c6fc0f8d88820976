#ifndef PLANORDER_SIM_PROPERTIES_H_
#define PLANORDER_SIM_PROPERTIES_H_

#include <cstdint>
#include <string>

#include "base/status.h"
#include "sim/harness.h"
#include "sim/scenario.h"
#include "stats/workload.h"
#include "utility/measures.h"
#include "utility/model.h"

namespace planorder::sim {

/// Utility-model decorator applying u' = scale * u + shift (scale > 0, a
/// strictly increasing affine map). Every structural predicate (monotonicity,
/// diminishing returns, full and group independence, witness search)
/// forwards to the wrapped model: an affine map changes no comparison
/// between utilities, so a correct orderer must emit the same order. With
/// shift == 0 and scale a power of two the transform is floating-point-exact
/// and the emission sequence must match bit-for-bit; otherwise rounding can
/// merge near-ties and only the utility sequences are comparable.
class AffineModel : public utility::UtilityModel {
 public:
  /// `base` must outlive the decorator and be built over `workload`.
  AffineModel(const utility::UtilityModel* base,
              const stats::Workload* workload, double scale, double shift);

  std::string name() const override;
  Interval Evaluate(utility::NodeSpan nodes,
                    const utility::ExecutionContext& ctx) const override;
  bool fully_monotonic() const override { return base_->fully_monotonic(); }
  double MonotoneScore(int bucket, int source) const override {
    return base_->MonotoneScore(bucket, source);
  }
  bool diminishing_returns() const override {
    return base_->diminishing_returns();
  }
  bool fully_independent() const override {
    return base_->fully_independent();
  }
  bool GroupIndependentOf(utility::NodeSpan nodes,
                          const utility::ConcretePlan& plan) const override {
    return base_->GroupIndependentOf(nodes, plan);
  }
  std::optional<utility::ConcretePlan> FindIndependentGroupPlan(
      utility::NodeSpan nodes,
      const std::vector<const utility::ConcretePlan*>& others) const override {
    return base_->FindIndependentGroupPlan(nodes, others);
  }

 private:
  const utility::UtilityModel* base_;
  double scale_;
  double shift_;
};

/// Metamorphic property: ordering under scale * u + shift. When the
/// transform is exact (shift == 0, scale a positive power of two) the plan
/// sequence must be identical and utilities must satisfy u' == scale * u
/// exactly; otherwise utilities must match within `tolerance` after the
/// inverse transform.
Status CheckMonotoneTransform(const stats::Workload& workload,
                              utility::MeasureKind kind,
                              const core::OrdererSpec& algo, double scale,
                              double shift, double tolerance);

/// Metamorphic property: relabeling invariance. Permutes the sources inside
/// every bucket (seeded Fisher-Yates), reorders the statistics via
/// Workload::FromParts, and requires (a) the permuted run's emission-utility
/// sequence to match the base run's within `tolerance` (tie-breaks are
/// index-dependent, so plan identities may differ at exact ties), and (b)
/// the permuted emissions to pass the exhaustive-order oracle in their own
/// basis when the space has at most `max_oracle_plans` plans.
Status CheckRelabelInvariance(const stats::Workload& workload,
                              utility::MeasureKind kind,
                              const core::OrdererSpec& algo, uint64_t perm_seed,
                              double tolerance, uint64_t max_oracle_plans);

/// End-to-end property: mediating through the resilient concurrent runtime
/// under the scenario's fault/latency schedule (every fault transient, ample
/// retries) must yield exactly the serial mediator's step sequence and
/// answers at every thread count — and, on a virtual clock, the same total
/// simulated elapsed time regardless of thread count (atomic time
/// accumulation commutes).
Status CheckRuntimeEquivalence(const Scenario& scenario);

/// Ranked-enumeration differential check (src/anyk/). Builds the scenario's
/// synthetic domain and streams its weighted answers through
/// anyk::RankedAnswerStream (IDrips plan order, full plan budget), then
/// demands, all byte-identical:
///  (a) the streamed sequence equals the brute-force oracle — every sound,
///      executable rewriting of the full Cartesian product materialized and
///      sorted (weight desc, tuple lex asc), duplicates keeping max weight;
///  (b) scaling every tuple weight by a power of two scales every emission
///      weight by exactly that factor without reordering anything;
///  (c) relabeling (permuting each bucket's sources) changes nothing.
/// Scenarios whose full space exceeds `max_oracle_plans` are skipped (the
/// oracle is exponential).
Status CheckRankedEmission(const Scenario& scenario,
                           uint64_t max_oracle_plans);

/// Multi-session cluster property (DESIGN.md §10). Runs
/// `scenario.num_sessions` sessions of the scenario's synthetic query class
/// through a cluster::ShardedService whose shards share one
/// cluster::SourceOperationCache, under a cache-aware utility measure
/// (kFailureCache), and checks:
///  (a) serial oracle — sessions interleaved round-robin on one thread:
///      every emitted step's utility equals a fresh model evaluation under
///      the exact cache residency the view reported when the step was
///      ordered (utilities provably reflect cache state at eval time, the
///      cross-session conditional-utility contract);
///  (b) any interleaving — the same sessions driven by one client thread
///      each: every session's answer set is byte-identical to its serial
///      replay (sorted comparison; answers are interleaving-invariant
///      because cached rows equal fetched rows), and each step's utility is
///      self-consistent with the residency its session ranked it under
///      (Session::external_residency, read after the step);
///  (c) with `scenario.multi_inject_stale` the sessions poll a view frozen
///      at open time instead of the live cache — the deliberately planted
///      stale-utility bug — and check (a) must fail (the sim self-test
///      asserts it does).
Status CheckMultiSession(const Scenario& scenario, double tolerance);

/// Adaptive re-ranking property (DESIGN.md §12). Drifts the true
/// cardinality of `scenario.drift_sources` sources by `drift_factor` from
/// emission `drift_step` on, feeds one synthetic execution observation per
/// emitted plan step into an adaptive::ObservedStats (folding a window after
/// every step), and drains an adaptive::AdaptiveOrderer under that feedback
/// loop. Checks:
///  (a) oracle — the adaptive emission sequence (plans AND utilities,
///      bit-for-bit) equals an independent rebuild-from-observed-stats
///      replay: an oracle that re-runs StatsDiverged/BlendWorkload itself
///      and, on each divergence, constructs a *fresh* inner orderer over the
///      blended statistics, preloads the executed prefix and skips
///      already-emitted plans — the mid-stream discard-and-reorder contract
///      stated from first principles; the rebuild counts must agree too;
///  (b) conditional maximality — every oracle emission's utility matches a
///      brute-force fresh evaluation conditioned on exactly the executed
///      prefix, and no not-yet-emitted plan beats it (within `tolerance`)
///      under the generation's blended statistics.
/// With `scenario.drift_inject_stale` the orderer is built without the
/// observed statistics (the planted stale-statistics bug) while the oracle
/// still reacts, so check (a) must fail once the drift actually flips the ranking
/// — the sim self-test asserts it does. Spaces above 80 plans are skipped
/// (the oracle re-ranks O(rebuilds * plans^2)).
Status CheckDriftRerank(const Scenario& scenario, double tolerance);

}  // namespace planorder::sim

#endif  // PLANORDER_SIM_PROPERTIES_H_
