#ifndef PLANORDER_RUNTIME_SOURCE_RUNTIME_H_
#define PLANORDER_RUNTIME_SOURCE_RUNTIME_H_

#include <cstdint>
#include <map>
#include <string>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "runtime/remote_source.h"
#include "runtime/retry_policy.h"
#include "runtime/source_result_cache.h"
#include "runtime/thread_pool.h"

namespace planorder::runtime {

/// Configuration of the resilient concurrent source-access runtime. One
/// options object fully determines a run together with the source contents:
/// the seed drives every simulated latency and fault draw.
struct RuntimeOptions {
  /// Worker threads in the pool.
  int num_threads = 4;
  /// Max concurrent partitions per batched source call; 0 = num_threads.
  int max_partitions_per_call = 0;
  /// Seed of the simulated network: per-source seeds derive from it (see
  /// the SourceRuntime constructor).
  uint64_t seed = 1;
  /// Wall-clock realism: 1.0 sleeps simulated milliseconds for real,
  /// 0.0 never sleeps (tests). See the RemoteSource constructor.
  double time_dilation = 1.0;
  /// Time source every simulated wait is charged through (borrowed; null =
  /// the process-wide RealClock). Inject a VirtualClock to replay fault /
  /// latency schedules deterministically — see runtime/clock.h.
  Clock* clock = nullptr;
  /// Applied to every source; override per source via
  /// SourceRuntime::Configure.
  NetworkModel default_model;
  RetryPolicy retry;
  /// Shared cross-session source-operation result cache (borrowed, may be
  /// null). When set, every batched call consults it once, before
  /// partitioning: a hit is served free of charge, a miss's leader fetches
  /// every partition and publishes the whole batch's rows — see
  /// SourceRuntime::ExecutePlan and src/cluster/.
  SourceResultCache* source_cache = nullptr;
  /// Execution-trace sink (borrowed, may be null). Every completed uncached
  /// source call is reported with observed rows / attempts / failures /
  /// latency — the feed of the adaptive statistics layer
  /// (src/adaptive/observed_stats.h). Cache hits are not reported.
  SourceTraceSink* trace_sink = nullptr;
};

/// The runtime assembled: a thread pool + one RemoteSource per entry of an
/// exec::SourceRegistry, exposed to the mediator as an exec::PlanExecutor.
/// Plug it into Mediator::Run or Mediator::OpenStream:
///
///   runtime::RuntimeOptions options;
///   options.num_threads = 8;
///   options.default_model.per_binding_latency_ms = 0.5;
///   options.default_model.transient_failure_rate = 0.05;
///   runtime::SourceRuntime rt(&registry, options);
///   auto result = mediator.Run(orderer, {.max_plans = 16}, rt);
///
/// Source failures degrade gracefully: a plan whose source dies (permanent
/// outage, retries exhausted) comes back as a failed step and is reported to
/// the orderer as a discard — the run keeps collecting answers from the
/// surviving plans, exactly like the unsound-plan protocol.
class SourceRuntime : public exec::PlanExecutor {
 public:
  /// `sources` must outlive the runtime and already hold every source the
  /// executed plans reference. Per-source seeds are derived from
  /// `options.seed` in sorted-name order, so one recorded seed reproduces
  /// the whole run.
  SourceRuntime(exec::SourceRegistry* sources, const RuntimeOptions& options);

  const RuntimeOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }

  /// Overrides one source's network model (kNotFound for an unknown name).
  /// Not synchronized against ExecutePlan: call it before plans run.
  Status Configure(const std::string& name, const NetworkModel& model);

  /// Executes one rewriting with exec::ExecutePlanDependent against the
  /// RemoteSources, each atom's batched semi-join partitioned across the
  /// pool: the batch is split into at most `max_partitions_per_call`
  /// contiguous chunks fetched concurrently (with retries) and concatenated
  /// in chunk order — the serial batch's row sequence, so with faults
  /// disabled the answers equal a SourceRegistry run's, in the same order.
  /// Every partition counts as one source call.
  ///
  /// With a RuntimeOptions::source_cache, each batch consults the cache
  /// once, before partitioning, so its entries never depend on the pool
  /// size: a hit returns the cached rows with no network draw, sleep or
  /// trace observation and adds the batch's partition count to
  /// RuntimeAccounting::source_cache_hits (source_calls minus
  /// source_cache_hits is the number of calls that reached a source); a
  /// miss's leader fetches every partition and publishes the concatenated
  /// rows once.
  ///
  /// Precondition: when the caller runs on this runtime's own pool workers,
  /// max_partitions_per_call must be 1. A multi-partition batch waits on
  /// partitions queued in the same pool, which deadlocks once every worker
  /// is such a caller.
  ///
  /// The PlanExecution carries the plan's own calls, shipped tuples and
  /// runtime accounting (also for a failed plan: the work it burned is part
  /// of its cost), exact however many plans run concurrently. Source
  /// failure that survives retries is reported via PlanExecution::failed
  /// (never a non-OK status), so the mediator can discard the plan and
  /// continue.
  StatusOr<exec::PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) override;

 private:
  RuntimeOptions options_;
  ThreadPool pool_;
  std::map<std::string, RemoteSource> sources_;
  int max_partitions_;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_SOURCE_RUNTIME_H_
