#include "runtime/source_runtime.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "exec/dependent_join.h"

namespace planorder::runtime {

using datalog::Term;

namespace {

/// The runtime's side of the dependent-join kernel: every batch consults
/// the shared result cache (if any) once, goes out partitioned over the pool
/// with retries on a miss, and lands every call's accounting in the
/// plan-local `accounting`.
class PartitionedFetcher : public exec::BatchFetcher {
 public:
  PartitionedFetcher(std::map<std::string, RemoteSource>& sources,
                     ThreadPool& pool, int max_partitions,
                     const RetryPolicy& retry, SourceResultCache* cache,
                     exec::RuntimeAccounting* accounting)
      : sources_(sources),
        pool_(pool),
        max_partitions_(max_partitions),
        retry_(retry),
        cache_(cache),
        accounting_(accounting) {}

  const exec::AccessibleSource* Find(
      const std::string& predicate) const override {
    auto it = sources_.find(predicate);
    return it == sources_.end() ? nullptr : &it->second.underlying();
  }

  /// Fetches the non-empty `batch` as `*calls` partition calls. Without a
  /// cache, or on a miss, that is FetchPartitioned. With one, the batch is
  /// the cached operation (single-flight): a hit returns the rows free of
  /// charge — no latency draws, no sleeping, no retries — mirroring the
  /// zero residual cost the utility measures assign to cached operations.
  /// On a miss this call is the leader; it pays every partition and
  /// publishes the concatenated rows, so concurrent sessions waiting on the
  /// same key all hit. A failed leader aborts, and Acquire promotes one
  /// waiter to retry — so permanent outages fail every caller instead of
  /// wedging the key.
  StatusOr<std::vector<std::vector<Term>>> Fetch(const std::string& predicate,
                                                 const exec::BindingBatch& batch,
                                                 int64_t* calls) override {
    RemoteSource& source = sources_.find(predicate)->second;
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
    if (cache_ == nullptr) {
      return FetchPartitioned(source, batch, partitions, chunk);
    }
    while (true) {
      bool leader = false;
      std::optional<std::vector<std::vector<Term>>> hit =
          cache_->Acquire(predicate, batch, &leader);
      if (hit.has_value()) {
        if (accounting_ != nullptr) {
          accounting_->source_cache_hits += partitions;
        }
        return *std::move(hit);
      }
      if (!leader) continue;  // leader aborted before us; try again
      StatusOr<std::vector<std::vector<Term>>> rows =
          FetchPartitioned(source, batch, partitions, chunk);
      if (rows.ok()) {
        cache_->Publish(predicate, batch, *rows);
      } else {
        cache_->Abort(predicate, batch);
      }
      return rows;
    }
  }

 private:
  /// Splits `batch` into `partitions` contiguous chunks of `chunk`
  /// combinations run concurrently on the pool and concatenates their rows
  /// in chunk order: the serial FetchBatch row sequence, since contiguous
  /// chunks of a distinct batch match disjoint rows.
  StatusOr<std::vector<std::vector<Term>>> FetchPartitioned(
      RemoteSource& source, const exec::BindingBatch& batch, int partitions,
      size_t chunk) {
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

  std::map<std::string, RemoteSource>& sources_;
  ThreadPool& pool_;
  const int max_partitions_;
  const RetryPolicy& retry_;
  SourceResultCache* const cache_;
  exec::RuntimeAccounting* accounting_;
};

}  // namespace

SourceRuntime::SourceRuntime(exec::SourceRegistry* sources,
                             const RuntimeOptions& options)
    : options_(options),
      pool_(options.num_threads),
      max_partitions_(options.max_partitions_per_call > 0
                          ? options.max_partitions_per_call
                          : pool_.num_threads()) {
  // Sorted-name iteration + one Rng stream: each source's key depends only on
  // (seed, its rank), so the same seed reproduces the same per-source
  // behavior across runs and platforms.
  Rng rng(options_.seed);
  for (const std::string& name : sources->Names()) {
    const uint64_t source_seed = CombineHash(rng.engine()(), Fnv1a64(name));
    sources_.try_emplace(name, sources->Find(name), source_seed,
                         options_.default_model, options_.time_dilation,
                         options_.clock, options_.trace_sink);
  }
}

Status SourceRuntime::Configure(const std::string& name,
                                const NetworkModel& model) {
  auto it = sources_.find(name);
  if (it == sources_.end()) {
    return NotFoundError("no remote source '" + name + "'");
  }
  it->second.set_model(model);
  return OkStatus();
}

StatusOr<exec::PlanExecution> SourceRuntime::ExecutePlan(
    const datalog::ConjunctiveQuery& rewriting) {
  // Accounting is collected plan-locally (threaded down through every
  // FetchBatch of this execution): concurrent plans from other sessions
  // share the RemoteSources, and only the plan's own channel and trace
  // attribute its work exactly.
  exec::PlanExecution exec;
  exec::ExecutionTrace trace;
  PartitionedFetcher fetcher(sources_, pool_, max_partitions_, options_.retry,
                             options_.source_cache, &exec.runtime);
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
