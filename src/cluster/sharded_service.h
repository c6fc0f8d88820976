#ifndef PLANORDER_CLUSTER_SHARDED_SERVICE_H_
#define PLANORDER_CLUSTER_SHARDED_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "adaptive/plan_store.h"
#include "base/logging.h"
#include "cluster/source_cache.h"
#include "service/query_service.h"

namespace planorder::cluster {

/// Configuration of a ShardedService.
struct ClusterOptions {
  /// Number of QueryService shards; sessions hash over them by canonical
  /// query form.
  int num_shards = 2;
  /// Per-shard service configuration: every shard gets its own admission
  /// slots, queue and reformulation cache built from this template (so
  /// total capacity scales with num_shards).
  service::ServiceOptions shard;
  /// The shared cross-session source-operation cache (borrowed, may be
  /// null). When set it is installed as every shard's
  /// ServiceOptions::source_cache_view; the caller wires the same cache into
  /// the fetch path via runtime::RuntimeOptions::source_cache.
  SourceOperationCache* source_cache = nullptr;

  /// When non-empty, each shard gets its own persistent plan/stats store at
  /// `<plan_store_dir>/shard_<i>.planstore` (DESIGN.md §12): warm restarts
  /// reload every shard's reformulation cache and learned statistics, and
  /// PersistAll() flushes them on demand. The directory must already exist.
  /// Because routing is deterministic (canonical-form hash mod num_shards),
  /// a restart with the same num_shards finds each query class's entries on
  /// its home shard. Empty = persistence disabled.
  std::string plan_store_dir;
};

/// The cluster front end (DESIGN.md §10): N independent QueryService shards
/// behind one routing function. A query is canonicalized and routed by
/// canonical-form hash, so isomorphic queries land on the same shard and
/// keep its reformulation cache hot, while distinct query classes spread
/// across shards' admission slots. The one piece of state crossing shards is
/// the source-operation result cache: any session's fetch makes that
/// operation free for every session on every shard — both on the wire
/// (single-flight, zero latency) and in the orderers' utility models (zero
/// residual cost).
///
/// Thread-safe exactly as QueryService is: all routing state is immutable
/// after construction.
class ShardedService {
 public:
  /// `catalog` and `source_facts` must outlive the service. `executor`
  /// (optional, borrowed) is shared by all shards — runtime::SourceRuntime
  /// is thread-safe; nullptr means per-shard set-oriented evaluation.
  ShardedService(const datalog::Catalog* catalog,
                 const datalog::Database* source_facts, ClusterOptions options,
                 exec::PlanExecutor* executor = nullptr);

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard `query` routes to: canonical-form hash modulo num_shards.
  /// Isomorphic queries always agree.
  int ShardFor(const datalog::ConjunctiveQuery& query) const;

  service::QueryService& shard(int index) {
    PLANORDER_CHECK_GE(index, 0);
    PLANORDER_CHECK_LT(index, num_shards());
    return *shards_[static_cast<size_t>(index)];
  }

  /// QueryService::OpenSession / RunQuery on the query's home shard
  /// (including its admission control — a full shard sheds even if others
  /// are idle; the load harness measures exactly this).
  StatusOr<std::unique_ptr<service::Session>> OpenSession(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits);
  StatusOr<exec::MediatorResult> RunQuery(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits);

  /// Each shard's own metrics snapshot, in shard order.
  std::vector<service::ServiceMetricsSnapshot> PerShardMetrics() const;

  /// Cluster-wide aggregate: every shard's snapshot folded with
  /// ServiceMetricsSnapshot::Merge — counters and queue depths summed, peaks
  /// maxed, latency histograms merged bucket by bucket (so the percentiles
  /// are those of the union of the shards' sessions, never averages).
  service::ServiceMetricsSnapshot MergedMetrics() const;

  /// The shared source cache, or null when none was configured.
  SourceOperationCache* source_cache() const { return options_.source_cache; }

  /// Flushes every shard's reformulation cache + learned statistics to its
  /// plan store (shutdown checkpoint). kFailedPrecondition when
  /// plan_store_dir was empty; otherwise the first shard-save error, with
  /// the remaining shards still attempted.
  Status PersistAll();

 private:
  ClusterOptions options_;
  /// Per-shard persistent stores (parallel to shards_); empty when
  /// plan_store_dir is empty. Declared before shards_ so each store outlives
  /// the QueryService borrowing it.
  std::vector<std::unique_ptr<adaptive::PlanStore>> stores_;
  std::vector<std::unique_ptr<service::QueryService>> shards_;
};

}  // namespace planorder::cluster

#endif  // PLANORDER_CLUSTER_SHARDED_SERVICE_H_
