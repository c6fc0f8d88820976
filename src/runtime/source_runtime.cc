#include "runtime/source_runtime.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "exec/dependent_join.h"

namespace planorder::runtime {

using datalog::Term;

namespace {

/// The runtime's side of the dependent-join kernel: every batch goes out
/// partitioned over the pool with retries, and every call's accounting lands
/// in the plan-local `accounting`.
class PartitionedFetcher : public exec::BatchFetcher {
 public:
  PartitionedFetcher(RemoteRegistry& sources, ThreadPool& pool,
                     int max_partitions, const RetryPolicy& retry,
                     exec::RuntimeAccounting* accounting)
      : sources_(sources),
        pool_(pool),
        max_partitions_(max_partitions),
        retry_(retry),
        accounting_(accounting) {}

  const exec::AccessibleSource* Find(
      const std::string& predicate) const override {
    const RemoteSource* source = sources_.Find(predicate);
    return source == nullptr ? nullptr : &source->underlying();
  }

  /// Splits the non-empty `batch` into at most `max_partitions_` contiguous
  /// chunks run concurrently on the pool and concatenates their rows in
  /// chunk order: the serial FetchBatch row sequence, since contiguous
  /// chunks of a distinct batch match disjoint rows.
  StatusOr<std::vector<std::vector<Term>>> Fetch(const std::string& predicate,
                                                 const exec::BindingBatch& batch,
                                                 int64_t* calls) override {
    RemoteSource& source = *sources_.Find(predicate);
    int partitions = std::min({max_partitions_, pool_.num_threads(),
                               static_cast<int>(batch.size())});
    if (partitions < 1) partitions = 1;
    // Ceiling-divide can leave trailing chunks empty (e.g. 5 items over 4
    // partitions -> chunks of 2 fill after 3); recompute so every chunk is
    // non-empty and in range.
    const size_t chunk =
        (batch.size() + size_t(partitions) - 1) / size_t(partitions);
    partitions = static_cast<int>((batch.size() + chunk - 1) / chunk);
    *calls = partitions;
    if (partitions == 1) return source.FetchBatch(batch, retry_, accounting_);

    struct Partition {
      StatusOr<std::vector<std::vector<Term>>> rows =
          Status(StatusCode::kInternal, "partition not executed");
      exec::RuntimeAccounting accounting;
    };
    std::vector<Partition> results(static_cast<size_t>(partitions));
    {
      TaskGroup group(&pool_);
      for (int p = 0; p < partitions; ++p) {
        const size_t lo = size_t(p) * chunk;
        const size_t hi = std::min(batch.size(), lo + chunk);
        group.Submit([this, &source, &batch, &results, p, lo, hi] {
          Partition& result = results[size_t(p)];
          result.rows = source.FetchBatch(batch.Slice(lo, hi), retry_,
                                          &result.accounting);
        });
      }
      group.Wait();
    }

    for (const Partition& result : results) {
      if (accounting_ != nullptr) accounting_->Merge(result.accounting);
    }
    // First failing partition (in deterministic chunk order) fails the call.
    for (const Partition& result : results) {
      if (!result.rows.ok()) return result.rows.status();
    }
    std::vector<std::vector<Term>> merged;
    for (Partition& result : results) {
      merged.insert(merged.end(), std::make_move_iterator(result.rows->begin()),
                    std::make_move_iterator(result.rows->end()));
    }
    return merged;
  }

 private:
  RemoteRegistry& sources_;
  ThreadPool& pool_;
  const int max_partitions_;
  const RetryPolicy& retry_;
  exec::RuntimeAccounting* accounting_;
};

}  // namespace

SourceRuntime::SourceRuntime(exec::SourceRegistry* sources,
                             const RuntimeOptions& options)
    : options_(options),
      pool_(options.num_threads),
      remotes_(sources, options.seed),
      max_partitions_(options.max_partitions_per_call > 0
                          ? options.max_partitions_per_call
                          : pool_.num_threads()) {
  remotes_.ConfigureAll(options_.default_model);
  remotes_.set_time_dilation(options_.time_dilation);
  if (options_.clock != nullptr) remotes_.set_clock(options_.clock);
  if (options_.source_cache != nullptr) {
    remotes_.set_result_cache(options_.source_cache);
  }
  if (options_.trace_sink != nullptr) {
    remotes_.set_trace_sink(options_.trace_sink);
  }
}

StatusOr<exec::PlanExecution> SourceRuntime::ExecutePlan(
    const datalog::ConjunctiveQuery& rewriting) {
  // Accounting is collected plan-locally (threaded down through every
  // FetchBatch of this execution): concurrent plans from other sessions
  // share the RemoteSources, and only the plan's own channel and trace
  // attribute its work exactly.
  exec::PlanExecution exec;
  exec::ExecutionTrace trace;
  PartitionedFetcher fetcher(remotes_, pool_, max_partitions_, options_.retry,
                             &exec.runtime);
  auto tuples = exec::ExecutePlanDependent(rewriting, fetcher, &trace);
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
