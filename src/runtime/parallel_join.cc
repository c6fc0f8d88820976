#include "runtime/parallel_join.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

namespace planorder::runtime {

using datalog::Term;

namespace {

struct PartitionResult {
  StatusOr<std::vector<std::vector<Term>>> rows =
      Status(StatusCode::kInternal, "partition not executed");
  exec::RuntimeAccounting accounting;
};

/// Fetches the non-empty `batch` split into at most `max_partitions`
/// contiguous chunks run concurrently on `pool`, merging chunk results in
/// chunk order with first-occurrence dedup (the serial FetchBatch row order).
StatusOr<std::vector<std::vector<Term>>> FetchBatchPartitioned(
    RemoteSource& source, const std::vector<std::map<int, Term>>& batch,
    ThreadPool& pool, const ParallelJoinOptions& options,
    int64_t* partition_calls, exec::RuntimeAccounting* accounting) {
  int partitions = std::min({options.max_partitions, pool.num_threads(),
                             static_cast<int>(batch.size())});
  if (partitions < 1) partitions = 1;
  // Ceiling-divide can leave trailing chunks empty (e.g. 5 items over 4
  // partitions -> chunks of 2 fill after 3); recompute so every chunk is
  // non-empty and in range.
  const size_t chunk =
      (batch.size() + size_t(partitions) - 1) / size_t(partitions);
  partitions = static_cast<int>((batch.size() + chunk - 1) / chunk);
  *partition_calls = partitions;
  if (partitions == 1) {
    return source.FetchBatch(batch, options.retry, accounting);
  }

  std::vector<PartitionResult> results(static_cast<size_t>(partitions));
  {
    TaskGroup group(&pool);
    for (int p = 0; p < partitions; ++p) {
      const size_t lo = size_t(p) * chunk;
      const size_t hi = std::min(batch.size(), lo + chunk);
      group.Submit([&source, &batch, &options, &results, p, lo, hi] {
        std::vector<std::map<int, Term>> slice(batch.begin() + long(lo),
                                               batch.begin() + long(hi));
        PartitionResult& result = results[size_t(p)];
        result.rows =
            source.FetchBatch(slice, options.retry, &result.accounting);
      });
    }
    group.Wait();
  }

  for (const PartitionResult& result : results) {
    if (accounting != nullptr) accounting->Merge(result.accounting);
  }
  // First failing partition (in deterministic chunk order) fails the call.
  for (const PartitionResult& result : results) {
    if (!result.rows.ok()) return result.rows.status();
  }
  std::vector<std::vector<Term>> merged;
  std::unordered_set<std::vector<Term>, datalog::TermVectorHash> seen;
  for (PartitionResult& result : results) {
    for (std::vector<Term>& row : *result.rows) {
      if (seen.insert(row).second) merged.push_back(std::move(row));
    }
  }
  return merged;
}

/// The runtime's side of the dependent-join kernel: every batch goes out
/// partitioned over the pool with retries, and every call's accounting lands
/// in the plan-local `accounting`.
class PartitionedFetcher : public exec::BatchFetcher {
 public:
  PartitionedFetcher(RemoteRegistry& sources, ThreadPool& pool,
                     const ParallelJoinOptions& options,
                     exec::RuntimeAccounting* accounting)
      : sources_(sources),
        pool_(pool),
        options_(options),
        accounting_(accounting) {}

  const exec::AccessibleSource* Find(
      const std::string& predicate) const override {
    const RemoteSource* source = sources_.Find(predicate);
    return source == nullptr ? nullptr : &source->underlying();
  }

  StatusOr<std::vector<std::vector<Term>>> Fetch(
      const std::string& predicate,
      const std::vector<std::map<int, Term>>& batch, int64_t* calls) override {
    return FetchBatchPartitioned(*sources_.Find(predicate), batch, pool_,
                                 options_, calls, accounting_);
  }

 private:
  RemoteRegistry& sources_;
  ThreadPool& pool_;
  const ParallelJoinOptions& options_;
  exec::RuntimeAccounting* accounting_;
};

}  // namespace

StatusOr<std::vector<std::vector<Term>>> ExecutePlanDependentParallel(
    const datalog::ConjunctiveQuery& rewriting, RemoteRegistry& sources,
    ThreadPool& pool, const ParallelJoinOptions& options,
    exec::ExecutionTrace* trace, exec::RuntimeAccounting* accounting) {
  PartitionedFetcher fetcher(sources, pool, options, accounting);
  return exec::ExecutePlanDependent(rewriting, fetcher, trace);
}

}  // namespace planorder::runtime
