#ifndef PLANORDER_CORE_EVALUATE_H_
#define PLANORDER_CORE_EVALUATE_H_

#include <algorithm>

#include "core/abstraction.h"
#include "utility/model.h"

namespace planorder::core {

/// Utility evaluation of a (possibly abstract) plan, optionally with a
/// probe-lifted lower bound.
///
/// The model's interval is an enclosure of every member's utility, so its
/// lower bound is min-over-members — often loose (e.g. coverage of a group
/// intersection box is usually 0). The paper's dominance notion (Section
/// 5.1) only requires ONE concrete plan of p to be at least every plan of q,
/// so a valid lower bound for pruning is the exact utility of any single
/// member: with use_probes the model-suggested probe member is evaluated and
/// max(model lower bound, probe utility) becomes the pruning bound,
/// remembering which justification applies:
///  - utility.lo() == model_lo: every member dominates (any-member witness);
///  - otherwise only the probe member is known to dominate (probe witness).
///
/// In practice the measures' tightened upper bounds (e.g. the coverage
/// model's best-member bound) make best-first refinement locate a strong
/// concrete plan quickly, whose exact point utility then prunes as well as
/// a probe would — without the extra evaluation per abstract plan. Probes
/// are therefore off by default; the probe-ablation/ series of
/// bench/bench_figures.cc quantifies the tradeoff.
struct PlanEvaluation {
  Interval utility = Interval::Point(0.0);
  /// The min-over-members lower bound from the model's enclosure.
  double model_lo = 0.0;
  /// The probe member plan (equals the plan itself when concrete).
  utility::ConcretePlan probe;
};

/// Zero-copy view of a plan stored in a PlanArena row (DESIGN.md §11): node
/// ids and pre-resolved summaries in bucket order. The view borrows both
/// arrays; the frontier keeps them alive and unchanged while it evaluates.
struct PlanView {
  const AbstractionForest* forest = nullptr;
  const uint32_t* nodes = nullptr;
  const stats::StatSummary* const* summaries = nullptr;
  int width = 0;
  bool concrete = false;
};

/// Evaluation result of a view — PlanEvaluation without the probe plan
/// (the flat frontier never materializes probe members; Streamer, which
/// does, keeps the AbstractPlan-based path below).
struct EvalResult {
  Interval utility = Interval::Point(0.0);
  double model_lo = 0.0;
};

/// The model's probe member for `node`, through the forest's per-node memo
/// (filled on a miss).
inline int CachedProbeMember(const AbstractionForest& forest, int node,
                             const utility::UtilityModel& model) {
  int member = forest.cached_probe_member(node);
  if (member < 0) {
    member = model.ProbeMember(forest.summary(node));
    forest.set_cached_probe_member(node, member);
  }
  return member;
}

/// EvaluateWithProbe semantics over a PlanView, allocation-free on the
/// probes-off path: enclosure straight from the pre-resolved summaries, and
/// — with use_probes, for abstract views — the probe member's exact utility
/// lifted into the lower bound. Counter semantics match EvaluateWithProbe
/// exactly (one per enclosure, one more per probe evaluation).
inline EvalResult EvaluateView(const PlanView& view,
                               const utility::UtilityModel& model,
                               const utility::ExecutionContext& ctx,
                               int64_t* evaluations, bool use_probes) {
  const utility::NodeSpan nodes(view.summaries,
                                static_cast<size_t>(view.width));
  if (evaluations != nullptr) ++*evaluations;
  const Interval enclosure = model.Evaluate(nodes, ctx);
  EvalResult result;
  result.model_lo = enclosure.lo();
  result.utility = enclosure;
  if (view.concrete || !use_probes) return result;
  utility::ConcretePlan probe(static_cast<size_t>(view.width));
  for (int b = 0; b < view.width; ++b) {
    probe[static_cast<size_t>(b)] = CachedProbeMember(
        *view.forest, static_cast<int>(view.nodes[b]), model);
  }
  if (evaluations != nullptr) ++*evaluations;
  const double probe_utility = model.EvaluateConcrete(probe, ctx);
  // The probe lies inside the enclosure up to rounding; clamp defensively.
  const double lo =
      std::min(std::max(enclosure.lo(), probe_utility), enclosure.hi());
  result.utility = Interval(lo, enclosure.hi());
  return result;
}

inline PlanEvaluation EvaluateWithProbe(const AbstractPlan& plan,
                                        const utility::UtilityModel& model,
                                        const utility::ExecutionContext& ctx,
                                        int64_t* evaluations,
                                        bool use_probes = true) {
  const std::vector<const stats::StatSummary*> summaries = plan.Summaries();
  const utility::NodeSpan nodes(summaries.data(), summaries.size());
  PlanEvaluation result;
  if (evaluations != nullptr) ++*evaluations;
  const Interval enclosure = model.Evaluate(nodes, ctx);
  result.model_lo = enclosure.lo();
  if (plan.IsConcrete()) {
    result.utility = enclosure;
    result.probe = plan.ToConcrete();
    return result;
  }
  if (!use_probes) {
    // Plain interval semantics (the paper's original evaluation): the lower
    // bound stays min-over-members and no witness member is identified.
    result.utility = enclosure;
    result.probe.assign(summaries.size(), -1);
    for (size_t b = 0; b < summaries.size(); ++b) {
      result.probe[b] = summaries[b]->members.front();
    }
    return result;
  }
  result.probe.resize(summaries.size());
  for (size_t b = 0; b < summaries.size(); ++b) {
    result.probe[b] = CachedProbeMember(*plan.forest, plan.nodes[b], model);
  }
  if (evaluations != nullptr) ++*evaluations;
  const double probe_utility = model.EvaluateConcrete(result.probe, ctx);
  // The probe lies inside the enclosure up to rounding; clamp defensively.
  const double lo =
      std::min(std::max(enclosure.lo(), probe_utility), enclosure.hi());
  result.utility = Interval(lo, enclosure.hi());
  return result;
}

}  // namespace planorder::core

#endif  // PLANORDER_CORE_EVALUATE_H_
