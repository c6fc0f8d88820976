#include "utility/cost_models.h"

#include <algorithm>
#include <cmath>

namespace planorder::utility {
namespace {

/// Caching adjustment for one cost term: an operation cached for every
/// member costs exactly zero; cached for some members makes zero reachable,
/// widening the interval down to it.
Interval ApplyCache(const Interval& term, const stats::StatSummary& node,
                    const ExecutionContext& ctx) {
  bool all_cached = true;
  bool any_cached = false;
  for (int member : node.members) {
    if (ctx.IsCached(node.bucket, member)) {
      any_cached = true;
    } else {
      all_cached = false;
    }
  }
  if (all_cached) return Interval::Point(0.0);
  if (any_cached) return Interval(0.0, term.hi());
  return term;
}

}  // namespace

Interval AdditiveCostModel::Evaluate(NodeSpan nodes,
                                     const ExecutionContext& ctx) const {
  (void)ctx;
  const double h = workload().access_overhead();
  Interval cost = Interval::Point(0.0);
  for (const stats::StatSummary* node : nodes) {
    cost += Interval::Point(h) + node->transmission_cost * node->cardinality;
  }
  return -cost;
}

double AdditiveCostModel::MonotoneScore(int bucket, int source) const {
  const stats::SourceStats& s = workload().source(bucket, source);
  return -(s.transmission_cost * s.cardinality);
}

StatusOr<std::unique_ptr<BoundJoinCostModel>> BoundJoinCostModel::Create(
    const stats::Workload* workload, MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kAdditive:
    case MeasureKind::kCoverage:
      return InvalidArgumentError(MeasureKindName(kind) +
                                  " is not a bound-join cost measure");
    case MeasureKind::kCost2UniformAlpha:
      for (int b = 0; b < workload->num_buckets(); ++b) {
        const double alpha0 = workload->source(b, 0).transmission_cost;
        for (int i = 1; i < workload->bucket_size(b); ++i) {
          if (std::abs(workload->source(b, i).transmission_cost - alpha0) >
              1e-12) {
            return FailedPreconditionError(
                "cost2-uniform-alpha needs uniform transmission costs, but "
                "they vary");
          }
        }
      }
      break;
    case MeasureKind::kCost2:
    case MeasureKind::kFailureNoCache:
    case MeasureKind::kFailureCache:
    case MeasureKind::kMonetary:
    case MeasureKind::kMonetaryCache:
      break;
  }
  return std::unique_ptr<BoundJoinCostModel>(
      new BoundJoinCostModel(workload, kind));
}

BoundJoinCostModel::BoundJoinCostModel(const stats::Workload* workload,
                                       MeasureKind kind)
    : UtilityModel(workload),
      uniform_alpha_(kind == MeasureKind::kCost2UniformAlpha),
      include_failure_(kind == MeasureKind::kFailureNoCache ||
                       kind == MeasureKind::kFailureCache),
      use_cache_(kind == MeasureKind::kFailureCache ||
                 kind == MeasureKind::kMonetaryCache),
      per_tuple_monetary_(kind == MeasureKind::kMonetary ||
                          kind == MeasureKind::kMonetaryCache) {}

std::string BoundJoinCostModel::name() const {
  std::string n =
      per_tuple_monetary_ ? "monetary-per-tuple" : "bound-join-cost";
  if (include_failure_) n += "+failure";
  if (use_cache_) n += "+cache";
  return n;
}

Interval BoundJoinCostModel::Evaluate(NodeSpan nodes,
                                      const ExecutionContext& ctx) const {
  const double h = workload().access_overhead();
  Interval cost = Interval::Point(0.0);
  Interval flowing = Interval::Point(1.0);  // bindings entering bucket b
  for (size_t b = 0; b < nodes.size(); ++b) {
    const stats::StatSummary& node = *nodes[b];
    // Items shipped from source b: all of its answers for the first subgoal,
    // the estimated bound-join result n_b * t_{b-1} / N_b afterwards.
    Interval transfer =
        b == 0 ? node.cardinality
               : node.cardinality * flowing /
                     Interval::Point(workload().domain_size(static_cast<int>(b)));
    const Interval& price =
        per_tuple_monetary_ ? node.fee : node.transmission_cost;
    Interval term = Interval::Point(h) + price * transfer;
    if (include_failure_) {
      term = term / (Interval::Point(1.0) - node.failure_prob);
    }
    if (use_cache_) {
      term = ApplyCache(term, node, ctx);
    }
    cost += term;
    flowing = transfer;
  }
  if (per_tuple_monetary_) {
    // `flowing` is the estimated number of output tuples; positive because
    // cardinalities and domain sizes are positive.
    cost = cost / flowing;
  }
  return -cost;
}

double BoundJoinCostModel::MonotoneScore(int bucket, int source) const {
  PLANORDER_CHECK(uniform_alpha_);
  (void)bucket;
  // With uniform transmission costs every term of measure (2) decreases when
  // any source's cardinality decreases, so fewer expected tuples is better.
  return -workload().source(bucket, source).cardinality;
}

bool BoundJoinCostModel::GroupIndependentOf(NodeSpan nodes,
                                            const ConcretePlan& plan) const {
  if (!use_cache_) return true;
  // With caching, executing `plan` zeroes exactly the terms of its own source
  // operations (same source at the same subgoal). Some concrete group plan
  // shares one iff `plan`'s source at some bucket is among the group's
  // members there.
  for (size_t b = 0; b < nodes.size(); ++b) {
    const std::vector<int>& members = nodes[b]->members;
    if (std::find(members.begin(), members.end(), plan[b]) != members.end()) {
      return false;
    }
  }
  return true;
}

std::optional<ConcretePlan> BoundJoinCostModel::FindIndependentGroupPlan(
    NodeSpan nodes, const std::vector<const ConcretePlan*>& others) const {
  ConcretePlan witness(nodes.size());
  if (!use_cache_) {
    for (size_t b = 0; b < nodes.size(); ++b) {
      witness[b] = nodes[b]->members[0];
    }
    return witness;
  }
  // Independence from every other plan decomposes per bucket: pick any member
  // not used at that bucket by any of `others`. Exact.
  for (size_t b = 0; b < nodes.size(); ++b) {
    bool found = false;
    for (int member : nodes[b]->members) {
      bool clashes = false;
      for (const ConcretePlan* other : others) {
        if ((*other)[b] == member) {
          clashes = true;
          break;
        }
      }
      if (!clashes) {
        witness[b] = member;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return witness;
}

}  // namespace planorder::utility
