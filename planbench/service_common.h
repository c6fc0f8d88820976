#ifndef PLANBENCH_SERVICE_COMMON_H_
#define PLANBENCH_SERVICE_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/plan_store.h"
#include "common.h"
#include "datalog/conjunctive_query.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "service/metrics.h"
#include "service/reformulation_cache.h"
#include "service/shared_view.h"
#include "workload.h"

/// Pieces shared by the service workloads: query classes, the oracles'
/// answer sets, the timing executor decorator the traced run installs at
/// the service's boundary, and the stage-by-stage session replay.
namespace planbench {

namespace datalog = planorder::datalog;
namespace exec = planorder::exec;
namespace service = planorder::service;

using Tuples = std::vector<std::vector<datalog::Term>>;

/// `query` with every variable renamed by appending `suffix`: isomorphic,
/// so it canonicalizes to the same class, but textually new.
datalog::ConjunctiveQuery RenameVariables(const datalog::ConjunctiveQuery& query,
                                          const std::string& suffix);

/// `query` with its head replaced by `head_args` (variables of the body).
datalog::ConjunctiveQuery WithHead(const datalog::ConjunctiveQuery& query,
                                   std::vector<datalog::Term> head_args);

/// `count` distinct canonical classes over the same sources: the rotations
/// of the chain query's all-variable head, then those rotations reversed.
std::vector<datalog::ConjunctiveQuery> HeadRotations(
    const datalog::ConjunctiveQuery& chain, int count);

/// Sorted copy of `tuples`.
Tuples Sorted(Tuples tuples);

/// True when every tuple of sorted `subset` occurs in sorted `superset`.
bool IsSubset(const Tuples& subset, const Tuples& superset);

/// A source registry holding the domain's source facts (the dependent-join
/// executors' view of the sources).
StatusOr<std::unique_ptr<exec::SourceRegistry>> MakeRegistry(
    const exec::SyntheticDomain& domain);

/// Executor decorator: times every ExecutePlan of `inner` as an
/// "ExecutePlan" span in `layer`. Free when the thread is not traced.
class TimedExecutor : public exec::PlanExecutor {
 public:
  TimedExecutor(exec::PlanExecutor* inner, const char* layer)
      : inner_(inner), layer_(layer) {}
  StatusOr<exec::PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) override;

 private:
  exec::PlanExecutor* inner_;
  const char* layer_;
};

/// The reformulation a QueryService computes on a cache miss (canonical
/// form, buckets, instance-estimated statistics), computed directly.
StatusOr<std::shared_ptr<const service::CachedReformulation>> Reformulate(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& source_facts);

/// What a QueryService's persist does: the cache snapshot written to `store`.
Status SaveStore(const service::ReformulationCache& cache, int num_sources,
                 const planorder::adaptive::PlanStore& store);

/// A plan-mode session as replayed stage by stage.
struct PlanRun {
  std::vector<planorder::utility::ConcretePlan> plans;
  Tuples answers;  // sorted
  int64_t evaluations = 0;
  int64_t sound = 0;
  int64_t executed = 0;
  int64_t source_calls = 0;
  int64_t tuples_shipped = 0;
};

/// Where a replayed session's front half finds its reformulation.
struct ReplayCache {
  service::ReformulationCache* cache = nullptr;
  /// Persisted after a miss, as ServiceOptions::plan_store (may be null).
  const planorder::adaptive::PlanStore* store = nullptr;
};

/// The front half of a replayed session, as a QueryService runs it:
/// CanonicalizeQuery, ReformulationCache::Lookup and AreEquivalent on a hit;
/// BuildBuckets, EstimateWorkloadFromInstances, Insert and (with a store)
/// PlanStore::Save on a miss — each in its own span when traced.
StatusOr<std::shared_ptr<const service::CachedReformulation>>
ReplayReformulation(const datalog::ConjunctiveQuery& query,
                    const datalog::Catalog& catalog,
                    const datalog::Database& source_facts,
                    const ReplayCache& replay_cache);

/// Replays one plan-mode session of `query` by calling, in session order,
/// the layer functions a QueryService session calls: ReplayReformulation,
/// the measure and Streamer Create, then per step the residency refresh (when
/// `view` is set), Orderer::Next, BuildSoundPlan, FindExecutableOrder,
/// `executor`'s ExecutePlan and the answer dedup — each in its own span
/// when the thread is traced.
StatusOr<PlanRun> ReplayPlanSession(const datalog::ConjunctiveQuery& query,
                                    const datalog::Catalog& catalog,
                                    const datalog::Database& source_facts,
                                    const ReplayCache& replay_cache,
                                    exec::PlanExecutor& executor,
                                    const service::SharedOperationView* view,
                                    int max_plans);

/// The layer values every service workload computes alike: the ordering
/// and front-half stage times of the trace (`evaluations` = what the
/// replayed orderers evaluated; `open_span` = the session-open boundary
/// span) and the reformulation-cache and admission counters between two
/// service snapshots, over `ops` ops.
void ServiceLayerMetrics(const Tracer::Summary& trace, const char* open_span,
                         int64_t evaluations,
                         const service::ServiceMetricsSnapshot& before,
                         const service::ServiceMetricsSnapshot& after,
                         int64_t ops, LayerValues* values);

}  // namespace planbench

#endif  // PLANBENCH_SERVICE_COMMON_H_
