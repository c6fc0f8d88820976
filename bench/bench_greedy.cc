/// Section 4: the Greedy algorithm for fully monotonic measures. The paper
/// proves an O(m n^2 k^2) bound and notes Greedy "clearly outperforms the
/// other algorithms when applicable"; these series show time to the first k
/// plans vs bucket size for Greedy against PI and the naive brute force, on
/// measure (1) (additive cost) and on measure (2) with uniform transmission
/// costs (the Section 3 example of a monotonic instance of (2)).
///
/// Expected shape: Greedy's time to the first plans is near-constant in the
/// bucket size (one evaluation per split space), while PI scales with the
/// full Cartesian product.

#include "bench_util.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
  stats::WorkloadOptions base;
  base.query_length = 3;
  base.overlap_rate = 0.3;
  base.regions_per_bucket = 16;
  base.seed = 2007;
  RegisterGrid("greedy.additive", utility::MeasureKind::kAdditive,
               {OrdererKind::kGreedy, OrdererKind::kPi, OrdererKind::kNaive},
               /*sizes=*/{8, 16, 32, 48, 64},
               /*ks=*/{1, 10, 100}, base);

  stats::WorkloadOptions uniform = base;
  uniform.alpha_min = 0.3;
  uniform.alpha_max = 0.3;
  uniform.seed = 2008;
  RegisterGrid("greedy.cost2-uniform-alpha",
               utility::MeasureKind::kCost2UniformAlpha,
               {OrdererKind::kGreedy, OrdererKind::kPi},
               /*sizes=*/{8, 16, 32, 48, 64},
               /*ks=*/{1, 10, 100}, uniform);
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
