/// Ablation over the abstraction heuristic (Section 3 "Source Similarity" /
/// Section 6 "a simple abstraction heuristic that groups sources based on
/// their similarity wrt the number of expected output tuples"). The paper
/// stresses that the algorithms only win "when the domain is amenable to
/// abstraction and an effective abstraction heuristic is used"; these series
/// quantify that by running Streamer and iDrips under
///   - by-cardinality grouping (the paper's heuristic),
///   - by-mask-similarity grouping (groups sources with similar coverage),
///   - random grouping (the floor),
/// on plan coverage, reporting time and plan evaluations to the first 10
/// plans.

#include "bench_util.h"

namespace planorder::bench {
namespace {

const char* HeuristicName(core::AbstractionHeuristic h) {
  switch (h) {
    case core::AbstractionHeuristic::kByCardinality:
      return "by-cardinality";
    case core::AbstractionHeuristic::kByMaskSimilarity:
      return "by-mask-similarity";
    case core::AbstractionHeuristic::kRandom:
      return "random";
  }
  return "?";
}

void RegisterAll() {
  for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kIDrips}) {
    for (core::AbstractionHeuristic h :
         {core::AbstractionHeuristic::kByCardinality,
          core::AbstractionHeuristic::kByMaskSimilarity,
          core::AbstractionHeuristic::kRandom}) {
      for (int size : {8, 16}) {
        stats::WorkloadOptions options;
        options.query_length = 3;
        options.bucket_size = size;
        options.regions_per_bucket = 16;
        options.overlap_rate = 0.3;
        options.seed = 2013;
        std::string name = std::string("abstraction-ablation/") +
                           OrdererKindName(algo) + "/" + HeuristicName(h) +
                           "/size:" + std::to_string(size) + "/k:10";
        benchmark::RegisterBenchmark(
            name.c_str(),
            [algo, h, options](benchmark::State& state) {
              const stats::Workload& workload = CachedWorkload(options);
              EpisodeResult last;
              for (auto _ : state) {
                last = RunEpisode({algo, h}, utility::MeasureKind::kCoverage,
                                  workload, 10);
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
