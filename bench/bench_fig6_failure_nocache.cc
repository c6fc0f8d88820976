/// Figure 6.d-f: cost measure (2) with probability of source failure, NO
/// caching — time to the first k in {1, 10, 100} plans vs bucket size.
/// Full plan independence holds (nothing executed changes any other plan's
/// cost) and so does diminishing returns, so Streamer applies.
///
/// Paper shape: Streamer substantially beats both iDrips and PI — its
/// dominance links never invalidate, so later plans come almost for free,
/// while iDrips rebuilds its abstraction reasoning every iteration.

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
  base.seed = 2003;
  RegisterGrid("fig6.failure-nocache", utility::MeasureKind::kFailureNoCache,
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
