#ifndef PLANORDER_EXEC_PIPELINE_H_
#define PLANORDER_EXEC_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/abstraction.h"
#include "core/orderer.h"
#include "core/orderer_factory.h"
#include "reformulation/bucket.h"
#include "reformulation/rewriting.h"
#include "utility/measures.h"

namespace planorder::exec {

/// The one-stop facade over the whole reformulation + ordering stack: give
/// it a catalog, a query and statistics, and pull executable rewritings in
/// exact decreasing utility order. Internally it builds the buckets, picks
/// an ordering algorithm, soundness-filters the stream (reporting discards
/// back so they do not condition later utilities), and orders each plan's
/// atoms executably under the sources' access patterns.
class OrderingPipeline {
 public:
  struct Options {
    utility::MeasureKind measure = utility::MeasureKind::kCost2;
    core::OrdererKind algorithm = core::OrdererKind::kAuto;
    core::AbstractionHeuristic heuristic =
        core::AbstractionHeuristic::kByCardinality;
  };

  /// One emitted plan: the executable rewriting plus its conditional
  /// utility.
  struct Emission {
    reformulation::QueryPlan plan;
    double utility = 0.0;
  };

  /// Builds the pipeline over an explicit workload whose buckets must align
  /// with the query's relational subgoals (e.g. from
  /// reformulation::EstimateWorkloadFromInstances). All pointers must
  /// outlive the pipeline.
  static StatusOr<std::unique_ptr<OrderingPipeline>> Create(
      const datalog::Catalog* catalog, datalog::ConjunctiveQuery query,
      const stats::Workload* workload, const Options& options);

  /// The next best sound, executable plan; NotFound when exhausted.
  StatusOr<Emission> Next();

  /// Which algorithm kAuto resolved to ("greedy", "streamer", ...).
  std::string algorithm_name() const { return orderer_->name(); }

  const reformulation::BucketResult& buckets() const { return buckets_; }
  int64_t plan_evaluations() const { return orderer_->plan_evaluations(); }

 private:
  OrderingPipeline() = default;

  const datalog::Catalog* catalog_ = nullptr;
  datalog::ConjunctiveQuery query_;
  reformulation::BucketResult buckets_;
  std::unique_ptr<utility::UtilityModel> model_;
  std::unique_ptr<core::Orderer> orderer_;
};

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_PIPELINE_H_
