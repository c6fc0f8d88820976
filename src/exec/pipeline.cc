#include "exec/pipeline.h"

#include "reformulation/executable_order.h"

namespace planorder::exec {

StatusOr<std::unique_ptr<OrderingPipeline>> OrderingPipeline::Create(
    const datalog::Catalog* catalog, datalog::ConjunctiveQuery query,
    const stats::Workload* workload, const Options& options) {
  auto pipeline = std::unique_ptr<OrderingPipeline>(new OrderingPipeline());
  pipeline->catalog_ = catalog;
  pipeline->query_ = std::move(query);
  PLANORDER_ASSIGN_OR_RETURN(
      pipeline->buckets_,
      reformulation::BuildBuckets(pipeline->query_, *catalog));
  if (static_cast<int>(pipeline->buckets_.buckets.size()) !=
      workload->num_buckets()) {
    return InvalidArgumentError(
        "workload buckets do not align with the query's relational subgoals");
  }
  for (size_t b = 0; b < pipeline->buckets_.buckets.size(); ++b) {
    if (static_cast<int>(pipeline->buckets_.buckets[b].size()) !=
        workload->bucket_size(static_cast<int>(b))) {
      return InvalidArgumentError("workload bucket " + std::to_string(b) +
                                  " does not match the source bucket");
    }
  }
  PLANORDER_ASSIGN_OR_RETURN(
      pipeline->model_, utility::MakeMeasure(options.measure, workload));

  PLANORDER_ASSIGN_OR_RETURN(
      pipeline->orderer_,
      core::MakeOrderer({options.algorithm, options.heuristic},
                        workload, pipeline->model_.get(),
                        {core::PlanSpace::FullSpace(*workload)}));
  return pipeline;
}

StatusOr<OrderingPipeline::Emission> OrderingPipeline::Next() {
  while (true) {
    PLANORDER_ASSIGN_OR_RETURN(core::OrderedPlan next, orderer_->Next());
    std::vector<datalog::SourceId> choice(next.plan.size());
    for (size_t b = 0; b < next.plan.size(); ++b) {
      choice[b] = buckets_.buckets[b][next.plan[b]];
    }
    PLANORDER_ASSIGN_OR_RETURN(
        std::optional<reformulation::QueryPlan> plan,
        reformulation::BuildSoundPlan(query_, *catalog_, choice));
    if (!plan.has_value()) {
      orderer_->ReportDiscarded();
      continue;
    }
    auto ordered = reformulation::FindExecutableOrder(*plan, *catalog_);
    if (!ordered.ok()) {
      if (ordered.status().code() != StatusCode::kFailedPrecondition) {
        return ordered.status();
      }
      orderer_->ReportDiscarded();
      continue;
    }
    return Emission{std::move(*ordered), next.utility};
  }
}

}  // namespace planorder::exec
