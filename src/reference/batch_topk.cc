#include "reference/batch_topk.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "core/evaluate.h"

namespace planorder::core {
namespace {

struct SearchNode {
  AbstractPlan plan;
  Interval utility;
  bool concrete = false;
};

struct ByUpperBound {
  bool operator()(const SearchNode& a, const SearchNode& b) const {
    return a.utility.hi() < b.utility.hi();
  }
};

}  // namespace

StatusOr<std::vector<OrderedPlan>> BatchTopK(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, int k, AbstractionHeuristic heuristic,
    int64_t* evaluations) {
  if (k < 1) return InvalidArgumentError("k must be >= 1");
  if (!model->fully_independent()) {
    return FailedPreconditionError(
        "batch top-k requires a fully independent utility measure; '" +
        model->name() + "' conditions on executed plans");
  }
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  // Utilities never depend on executions, so one fresh context serves.
  utility::ExecutionContext ctx(workload);

  std::vector<std::unique_ptr<AbstractionForest>> forests;
  std::priority_queue<SearchNode, std::vector<SearchNode>, ByUpperBound> open;
  auto push = [&](AbstractPlan plan) {
    SearchNode node;
    const std::vector<const stats::StatSummary*> summaries = plan.Summaries();
    node.utility = EvaluateCounted(
        utility::NodeSpan(summaries.data(), summaries.size()), *model, ctx,
        evaluations);
    node.concrete = plan.IsConcrete();
    node.plan = std::move(plan);
    open.push(std::move(node));
  };
  for (const PlanSpace& space : spaces) {
    forests.push_back(std::make_unique<AbstractionForest>(
        AbstractionForest::Build(*workload, space, heuristic)));
    AbstractPlan top;
    top.forest = forests.back().get();
    for (int b = 0; b < forests.back()->num_buckets(); ++b) {
      top.nodes.push_back(forests.back()->root(b));
    }
    push(std::move(top));
  }

  // Best-first: when the highest upper bound belongs to a concrete plan, no
  // other plan can beat it — emit. Otherwise refine that abstract plan.
  std::vector<OrderedPlan> best;
  best.reserve(static_cast<size_t>(k));
  while (static_cast<int>(best.size()) < k && !open.empty()) {
    SearchNode node = open.top();
    open.pop();
    if (node.concrete) {
      best.push_back(OrderedPlan{node.plan.ToConcrete(), node.utility.hi()});
      continue;
    }
    const AbstractionForest& forest = *node.plan.forest;
    const int bucket = RefinementBucket(forest, node.plan.nodes);
    PLANORDER_CHECK_GE(bucket, 0);
    AbstractPlan left = node.plan;
    left.nodes[bucket] = forest.left(node.plan.nodes[bucket]);
    AbstractPlan right = node.plan;
    right.nodes[bucket] = forest.right(node.plan.nodes[bucket]);
    push(std::move(left));
    push(std::move(right));
  }
  return best;
}

}  // namespace planorder::core
