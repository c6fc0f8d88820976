/// Section 6 text: "We also experimented with varying query length from 1
/// to 7, and observed the same trends, but with increasing performance gaps
/// as the query length increases."
///
/// Series: time to the first 10 plans, bucket size 4, query length swept
/// 1..7, for Streamer / iDrips / PI on plan coverage and on cost with
/// failure (no caching). PI's work grows with the full 4^m product while
/// the abstraction algorithms touch a sliver of it.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterLengths(const std::string& label,
                     utility::MeasureKind measure) {
  for (int m = 1; m <= 7; ++m) {
    for (OrdererKind algo :
         {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi}) {
      stats::WorkloadOptions options;
      options.query_length = m;
      options.bucket_size = 4;
      options.regions_per_bucket = 8;
      options.overlap_rate = 0.3;
      options.seed = 2010;
      std::string name = label + "/" + OrdererKindName(algo) +
                         "/m:" + std::to_string(m) + "/k:10";
      benchmark::RegisterBenchmark(
          name.c_str(),
          [algo, measure, options](benchmark::State& state) {
            const stats::Workload& workload = CachedWorkload(options);
            EpisodeResult last;
            for (auto _ : state) {
              last = RunEpisode({algo}, measure, workload, 10);
            }
            state.counters["evals"] = double(last.evaluations);
          })
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.02);
    }
  }
}

void RegisterAll() {
  RegisterLengths("query-length.coverage", utility::MeasureKind::kCoverage);
  RegisterLengths("query-length.failure-nocache",
                  utility::MeasureKind::kFailureNoCache);
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
