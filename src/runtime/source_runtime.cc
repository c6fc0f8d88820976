#include "runtime/source_runtime.h"

#include <utility>

namespace planorder::runtime {

SourceRuntime::SourceRuntime(exec::SourceRegistry* sources,
                             const RuntimeOptions& options)
    : options_(options),
      sources_(sources),
      pool_(options.num_threads),
      remotes_(sources, options.seed) {
  remotes_.ConfigureAll(options_.default_model);
  remotes_.set_time_dilation(options_.time_dilation);
  if (options_.clock != nullptr) remotes_.set_clock(options_.clock);
  if (options_.source_cache != nullptr) {
    remotes_.set_result_cache(options_.source_cache);
  }
  if (options_.trace_sink != nullptr) {
    remotes_.set_trace_sink(options_.trace_sink);
  }
  join_options_.max_partitions = options_.max_partitions_per_call > 0
                                     ? options_.max_partitions_per_call
                                     : pool_.num_threads();
  join_options_.retry = options_.retry;
}

StatusOr<exec::PlanExecution> SourceRuntime::ExecutePlan(
    const datalog::ConjunctiveQuery& rewriting) {
  // Accounting is collected plan-locally (threaded down through every
  // FetchBatch of this execution), never by diffing the shared registry
  // totals: concurrent plans from other sessions interleave with this one,
  // so registry deltas would attribute their work to us. Call and shipping
  // counts come from the plan's own execution trace for the same reason.
  exec::PlanExecution exec;
  exec::ExecutionTrace trace;
  auto tuples = ExecutePlanDependentParallel(
      rewriting, remotes_, pool_, join_options_, &trace, &exec.runtime);
  exec.source_calls = trace.TotalCalls();
  exec.tuples_shipped = trace.TotalTuplesShipped();
  if (!tuples.ok()) {
    if (tuples.status().code() == StatusCode::kUnavailable) {
      // Graceful degradation: the plan is lost to its sources, the run is
      // not. The mediator discards it like an unsound plan.
      exec.failed = true;
      exec.failure_reason = tuples.status().ToString();
      return exec;
    }
    return tuples.status();
  }
  exec.tuples = std::move(*tuples);
  return exec;
}

}  // namespace planorder::runtime
