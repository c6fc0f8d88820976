/// Figure 6.a-c: plan coverage — time from query issue until the first
/// k in {1, 10, 100} best plans are found, vs bucket size, for Streamer,
/// iDrips and PI (query length 3, overlap rate 0.3).
///
/// Paper shape: Streamer fastest for the first several plans (its
/// abstraction evaluates <4% of PI's plans in iteration one and recycles
/// dominance links afterwards); iDrips also beats PI early but falls behind
/// PI by the 100th plan as the cardinality-grouping heuristic stops implying
/// "similar new-tuple contribution".

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  stats::WorkloadOptions base;
  base.query_length = 3;
  base.overlap_rate = 0.3;
  base.regions_per_bucket = 16;
  base.seed = 2002;
  RegisterGrid("fig6.coverage", utility::MeasureKind::kCoverage,
               {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi},
               /*sizes=*/{4, 8, 12, 16, 20},
               /*ks=*/{1, 10, 100}, base);
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
