/// Related work (Section 7): Leser & Naumann's branch-and-bound "returns all
/// k plans at once" under full plan independence, and the paper notes it is
/// unclear whether it can be made incremental. This bench quantifies the
/// trade: batch top-k (BatchTopK) against the incremental Streamer and the
/// PI baseline on the failure-cost measure (full independence), for k known
/// up front. Batch avoids all dominance-graph upkeep but cannot stream:
/// plan k+1 requires a rerun.

#include "bench_util.h"

#include "core/batch_topk.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  for (int size : {12, 20}) {
    for (int k : {1, 10, 100}) {
      stats::WorkloadOptions options;
      options.query_length = 3;
      options.bucket_size = size;
      options.regions_per_bucket = 16;
      options.overlap_rate = 0.3;
      options.failure_min = 0.05;
      options.failure_max = 0.5;
      options.seed = 2016;
      const std::string suffix =
          "/size:" + std::to_string(size) + "/k:" + std::to_string(k);
      benchmark::RegisterBenchmark(
          ("batch-vs-incremental/batch-topk" + suffix).c_str(),
          [options, k](benchmark::State& state) {
            const stats::Workload& workload = CachedWorkload(options);
            int64_t evals = 0;
            for (auto _ : state) {
              auto model = utility::MakeMeasure(
                  utility::MeasureKind::kFailureNoCache, &workload);
              PLANORDER_CHECK(model.ok());
              evals = 0;
              auto best = core::BatchTopK(
                  &workload, model->get(),
                  {core::PlanSpace::FullSpace(workload)}, k,
                  core::AbstractionHeuristic::kByCardinality, &evals);
              PLANORDER_CHECK(best.ok()) << best.status();
              benchmark::DoNotOptimize(best->size());
            }
            state.counters["evals"] = double(evals);
          })
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.02);
      for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kPi}) {
        benchmark::RegisterBenchmark(
            ("batch-vs-incremental/" + OrdererKindName(algo) + suffix)
                .c_str(),
            [algo, options, k](benchmark::State& state) {
              const stats::Workload& workload = CachedWorkload(options);
              EpisodeResult last;
              for (auto _ : state) {
                last = RunEpisode({algo}, utility::MeasureKind::kFailureNoCache,
                                  workload, k);
              }
              state.counters["evals"] = double(last.evaluations);
            })
            ->Unit(benchmark::kMillisecond)
            ->MinTime(0.02);
      }
    }
  }
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) {
  planorder::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
