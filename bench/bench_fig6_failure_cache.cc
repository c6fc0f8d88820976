/// Figure 6.g-i: cost measure (2) with source failure AND operation caching
/// — time to the first k in {1, 10, 100} plans vs bucket size. Caching
/// zeroes the cost of operations an executed plan already performed, so
/// plans sharing a source operation are dependent and diminishing returns
/// fails: Streamer is NOT applicable (its factory refuses the measure), so
/// the series compare iDrips against PI.
///
/// Paper shape: iDrips finds the first several plans very fast compared to
/// PI — the abstraction heuristic stays effective across iterations.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  stats::WorkloadOptions base;
  base.query_length = 3;
  base.overlap_rate = 0.3;
  base.regions_per_bucket = 16;
  base.failure_min = 0.05;
  base.failure_max = 0.5;
  base.seed = 2004;
  RegisterGrid("fig6.failure-cache", utility::MeasureKind::kFailureCache,
               {OrdererKind::kIDrips, OrdererKind::kPi},
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
