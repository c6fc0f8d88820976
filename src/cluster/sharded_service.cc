#include "cluster/sharded_service.h"

#include <utility>

#include "datalog/canonicalize.h"

namespace planorder::cluster {

ShardedService::ShardedService(const datalog::Catalog* catalog,
                               const datalog::Database* source_facts,
                               ClusterOptions options,
                               exec::PlanExecutor* executor)
    : options_(std::move(options)) {
  PLANORDER_CHECK_GE(options_.num_shards, 1);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    service::ServiceOptions shard_options = options_.shard;
    if (options_.source_cache != nullptr) {
      shard_options.source_cache_view = options_.source_cache;
    }
    if (!options_.plan_store_dir.empty()) {
      stores_.push_back(std::make_unique<adaptive::PlanStore>(
          options_.plan_store_dir + "/shard_" + std::to_string(i) +
          ".planstore"));
      shard_options.plan_store = stores_.back().get();
    }
    shards_.push_back(std::make_unique<service::QueryService>(
        catalog, source_facts, std::move(shard_options), executor));
  }
}

Status ShardedService::PersistAll() {
  if (stores_.empty()) {
    return FailedPreconditionError(
        "PersistAll: no plan_store_dir configured");
  }
  Status first_error = OkStatus();
  for (const std::unique_ptr<service::QueryService>& shard : shards_) {
    Status status = shard->PersistPlanStore();
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  }
  return first_error;
}

int ShardedService::ShardFor(const datalog::ConjunctiveQuery& query) const {
  // Canonical-form hash: isomorphic queries collapse to one canonical query
  // (datalog/canonicalize.h), so every member of an isomorphism class routes
  // to the same shard and shares its reformulation cache entry.
  const datalog::CanonicalQuery canonical = datalog::CanonicalizeQuery(query);
  return static_cast<int>(canonical.hash %
                          static_cast<uint64_t>(shards_.size()));
}

StatusOr<std::unique_ptr<service::Session>> ShardedService::OpenSession(
    const datalog::ConjunctiveQuery& query,
    const exec::Mediator::RunLimits& limits) {
  return shards_[static_cast<size_t>(ShardFor(query))]->OpenSession(query,
                                                                    limits);
}

StatusOr<exec::MediatorResult> ShardedService::RunQuery(
    const datalog::ConjunctiveQuery& query,
    const exec::Mediator::RunLimits& limits) {
  return shards_[static_cast<size_t>(ShardFor(query))]->RunQuery(query,
                                                                 limits);
}

std::vector<service::ServiceMetricsSnapshot> ShardedService::PerShardMetrics()
    const {
  std::vector<service::ServiceMetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const std::unique_ptr<service::QueryService>& shard : shards_) {
    snapshots.push_back(shard->Metrics());
  }
  return snapshots;
}

service::ServiceMetricsSnapshot ShardedService::MergedMetrics() const {
  service::ServiceMetricsSnapshot merged;
  for (const std::unique_ptr<service::QueryService>& shard : shards_) {
    merged.Merge(shard->Metrics());
  }
  return merged;
}

}  // namespace planorder::cluster
