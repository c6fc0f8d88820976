/// Figure 6.j-l: average monetary cost per output tuple, in both the
/// no-caching and caching variants — time to the first k in {1, 10, 100}
/// plans vs bucket size.
///
/// Paper shape: both Streamer and iDrips perform WORSE than PI here. The
/// ratio utility makes the cardinality-grouping abstraction ineffective
/// (cost and output tuples move together, so group intervals stay wide and
/// little is pruned), while the per-plan overhead of maintaining abstract
/// plans remains. Streamer applies only to the no-caching variant.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  stats::WorkloadOptions base;
  base.query_length = 3;
  base.overlap_rate = 0.3;
  base.regions_per_bucket = 16;
  base.seed = 2005;
  RegisterGrid("fig6.monetary", utility::MeasureKind::kMonetary,
               {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi},
               /*sizes=*/{4, 8, 12, 16},
               /*ks=*/{1, 10, 100}, base);
  RegisterGrid("fig6.monetary-cache", utility::MeasureKind::kMonetaryCache,
               {OrdererKind::kIDrips, OrdererKind::kPi},
               /*sizes=*/{4, 8, 12, 16},
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
