#ifndef PLANORDER_RUNTIME_PARALLEL_JOIN_H_
#define PLANORDER_RUNTIME_PARALLEL_JOIN_H_

#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "exec/dependent_join.h"
#include "runtime/remote_source.h"
#include "runtime/retry_policy.h"
#include "runtime/thread_pool.h"

namespace planorder::runtime {

/// Knobs of one parallel plan execution.
struct ParallelJoinOptions {
  /// Upper bound on concurrent partitions per batched call (further clamped
  /// to the pool size and the batch size). 1 degenerates to the serial
  /// dependent join over RemoteSources.
  int max_partitions = 4;
  RetryPolicy retry;
};

/// Executes a rewriting with exec::ExecutePlanDependent against resilient
/// RemoteSources, each atom's batched semi-join *partitioned across the
/// thread pool*: the distinct binding combinations flowing in from the
/// prefix are split into contiguous chunks fetched concurrently, and the
/// chunk results are merged back in chunk order with first-occurrence
/// deduplication — bit-identical to the serial batch's row sequence, so with
/// faults disabled this path returns exactly the serial path's answers in
/// the same order. A trace entry's `calls` counts the partitions.
///
/// Failure semantics: a source outage that survives retries fails the WHOLE
/// PLAN with kUnavailable — the mediator degrades gracefully by discarding
/// the plan (see exec::PlanExecution::failed). Other statuses indicate real
/// errors.
///
/// `*accounting` (if non-null) accumulates the runtime accounting of every
/// source call this plan made — populated on failure paths too (the work a
/// failed plan burned is part of its cost). This is the plan-local channel
/// that stays exact when many plans execute concurrently over one shared
/// RemoteRegistry; partition accountings are merged in deterministic chunk
/// order.
StatusOr<std::vector<std::vector<datalog::Term>>> ExecutePlanDependentParallel(
    const datalog::ConjunctiveQuery& rewriting, RemoteRegistry& sources,
    ThreadPool& pool, const ParallelJoinOptions& options,
    exec::ExecutionTrace* trace = nullptr,
    exec::RuntimeAccounting* accounting = nullptr);

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_PARALLEL_JOIN_H_
