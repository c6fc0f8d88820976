/// Plan-evaluation-count reproduction of two quantitative claims:
///
///  1. Section 6, coverage: "across all runs the number of plans evaluated
///     by Streamer in the first iteration is less than 4% of the number of
///     plans evaluated by PI." The `streamer_pct_of_pi` counter reports the
///     measured percentage per bucket size.
///
///  2. Section 5.1's worked example: Drips finds the best of a 3x3 plan
///     space evaluating about 6 of the 9 plans (a ~33% saving); the
///     `evals` counter of the micro benchmark reports the measured count on
///     a 3x3 coverage space.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  for (int size : {8, 12, 16, 20, 24}) {
    stats::WorkloadOptions options;
    options.query_length = 3;
    options.bucket_size = size;
    options.regions_per_bucket = 16;
    options.overlap_rate = 0.3;
    options.seed = 2011;
    std::string name =
        "first-iteration-evals/size:" + std::to_string(size);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [options](benchmark::State& state) {
          const stats::Workload& workload = CachedWorkload(options);
          EpisodeResult streamer, pi;
          for (auto _ : state) {
            streamer = RunEpisode({OrdererKind::kStreamer},
                                  utility::MeasureKind::kCoverage, workload, 1);
            pi = RunEpisode({OrdererKind::kPi}, utility::MeasureKind::kCoverage,
                            workload, 1);
          }
          state.counters["streamer_evals"] = double(streamer.evaluations);
          state.counters["pi_evals"] = double(pi.evaluations);
          state.counters["streamer_pct_of_pi"] =
              100.0 * double(streamer.evaluations) / double(pi.evaluations);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.02);
  }

  benchmark::RegisterBenchmark(
      "drips-3x3-micro",
      [](benchmark::State& state) {
        stats::WorkloadOptions options;
        options.query_length = 2;
        options.bucket_size = 3;
        options.regions_per_bucket = 8;
        options.overlap_rate = 0.4;
        options.seed = 2012;
        const stats::Workload& workload = CachedWorkload(options);
        EpisodeResult last;
        for (auto _ : state) {
          last = RunEpisode({OrdererKind::kIDrips},
                            utility::MeasureKind::kCoverage, workload, 1);
        }
        state.counters["evals"] = double(last.evaluations);
        state.counters["brute_force_evals"] = 9.0;
      })
      ->Unit(benchmark::kMicrosecond)
      ->MinTime(0.02);
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
