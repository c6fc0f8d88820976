/// Ablation: probe-lifted lower bounds vs plain interval bounds.
///
/// Optionally the orderers evaluate one representative concrete member (a
/// "probe") per abstract plan and use its exact utility as the pruning
/// lower bound — sound under the paper's dominance definition, which only
/// needs one concrete plan of p to beat all of q. Measured result: with the
/// measures' tightened upper bounds in place (e.g. coverage's best-member
/// bound), best-first refinement reaches a strong concrete plan quickly and
/// its exact point utility prunes as well as a probe would, so probes only
/// add an extra evaluation per abstract plan (counts roughly double with
/// probes on). They are therefore OFF by default; this bench documents the
/// tradeoff and the general sensitivity of abstraction effectiveness to
/// bound quality — the phenomenon behind the paper's Figure 6.j-l, where
/// wide ratio intervals made abstraction lose to brute force.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  for (utility::MeasureKind measure :
       {utility::MeasureKind::kCoverage, utility::MeasureKind::kMonetary}) {
    for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kIDrips}) {
      for (bool probes : {true, false}) {
        for (int k : {1, 10}) {
          stats::WorkloadOptions options;
          options.query_length = 3;
          options.bucket_size = 12;
          options.regions_per_bucket = 16;
          options.overlap_rate = 0.3;
          options.seed = 2015;
          std::string name = std::string("probe-ablation/") +
                             utility::MeasureKindName(measure) + "/" +
                             OrdererKindName(algo) + "/probes:" +
                             (probes ? "on" : "off") +
                             "/k:" + std::to_string(k);
          benchmark::RegisterBenchmark(
              name.c_str(),
              [measure, algo, probes, options, k](benchmark::State& state) {
                const stats::Workload& workload = CachedWorkload(options);
                EpisodeResult last;
                for (auto _ : state) {
                  last = RunEpisode({algo,
                                     core::AbstractionHeuristic::kByCardinality,
                                     probes},
                                    measure, workload, k);
                }
                state.counters["evals"] = double(last.evaluations);
              })
              ->Unit(benchmark::kMillisecond)
              ->MinTime(0.02);
        }
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
