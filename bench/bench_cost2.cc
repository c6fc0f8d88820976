/// Section 6 supplementary row: cost measure (2) with varying transmission
/// costs and NO failure term. The paper reports results "very similar" to
/// the failure variant (Figures 6.d-f): Streamer clearly fastest, iDrips in
/// between, PI paying the full plan-space evaluation.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  stats::WorkloadOptions base;
  base.query_length = 3;
  base.overlap_rate = 0.3;
  base.regions_per_bucket = 16;
  base.seed = 2006;
  RegisterGrid("cost2", utility::MeasureKind::kCost2,
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
