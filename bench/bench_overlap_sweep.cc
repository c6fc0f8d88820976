/// Section 6 text, plan coverage: "Streamer's relative performance compared
/// to PI in finding subsequent plans decreases as the degree of plan
/// independence decreases (i.e., as the overlap rate increases)" — more
/// overlap invalidates more dominance links, so Streamer recycles fewer.
///
/// Series: time to the first 10 and 50 plans at bucket size 12, query
/// length 3, overlap rate swept over {0.1, 0.3, 0.5, 0.7, 0.9}, for
/// Streamer and PI; the `evals` counter exposes the recycling effect
/// directly.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  for (double overlap : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kPi}) {
      for (int k : {10, 50}) {
        stats::WorkloadOptions options;
        options.query_length = 3;
        options.bucket_size = 12;
        options.regions_per_bucket = 16;
        options.overlap_rate = overlap;
        options.seed = 2009;
        std::string name = "overlap-sweep/" + OrdererKindName(algo) +
                           "/overlap:" + std::to_string(overlap).substr(0, 3) +
                           "/k:" + std::to_string(k);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [algo, options, k](benchmark::State& state) {
              const stats::Workload& workload = CachedWorkload(options);
              EpisodeResult last;
              for (auto _ : state) {
                last = RunEpisode({algo}, utility::MeasureKind::kCoverage,
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
