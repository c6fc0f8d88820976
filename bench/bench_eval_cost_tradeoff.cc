/// Evaluation-cost / overhead tradeoff (the paper's Summary: "performance of
/// Streamer and iDrips depends on the tradeoff between the number of plans
/// evaluated and the overhead of maintaining the dominance graph...").
///
/// Our region-bitset coverage evaluation costs ~0.3us per plan — orders of
/// magnitude cheaper, relative to CPU, than the probabilistic statistics
/// computations of the paper's 2002 testbed. That shifts the balance toward
/// the brute-force PI at large k. This benchmark makes the regime explicit:
/// it wraps the coverage measure with a configurable amount of artificial
/// per-evaluation work (emulating heavier statistics machinery) and sweeps
/// it, showing the crossover where the abstraction algorithms' evaluation
/// savings overwhelm their bookkeeping overhead — the paper's regime.

#include "bench_util.h"
#include "utility/coverage_model.h"

namespace planorder::bench {
namespace {

/// Decorator adding `spin` floating-point operations to every evaluation.
class CostlyStatisticsModel : public utility::UtilityModel {
 public:
  CostlyStatisticsModel(const stats::Workload* workload,
                        utility::UtilityModel* inner, int spin)
      : UtilityModel(workload), inner_(inner), spin_(spin) {}

  std::string name() const override {
    return inner_->name() + "+spin" + std::to_string(spin_);
  }
  Interval Evaluate(utility::NodeSpan nodes,
                    const utility::ExecutionContext& ctx) const override {
    double x = 1.0;
    for (int i = 0; i < spin_; ++i) x = x * 1.0000000001 + 1e-12;
    benchmark::DoNotOptimize(x);
    return inner_->Evaluate(nodes, ctx);
  }
  bool fully_monotonic() const override { return inner_->fully_monotonic(); }
  double MonotoneScore(int bucket, int source) const override {
    return inner_->MonotoneScore(bucket, source);
  }
  bool diminishing_returns() const override {
    return inner_->diminishing_returns();
  }
  bool Independent(const utility::ConcretePlan& a,
                   const utility::ConcretePlan& b) const override {
    return inner_->Independent(a, b);
  }
  bool GroupIndependentOf(utility::NodeSpan nodes,
                          const utility::ConcretePlan& plan) const override {
    return inner_->GroupIndependentOf(nodes, plan);
  }
  std::optional<utility::ConcretePlan> FindIndependentGroupPlan(
      utility::NodeSpan nodes,
      const std::vector<const utility::ConcretePlan*>& others) const override {
    return inner_->FindIndependentGroupPlan(nodes, others);
  }
  int ProbeMember(const stats::StatSummary& summary) const override {
    return inner_->ProbeMember(summary);
  }

 private:
  utility::UtilityModel* inner_;
  int spin_;
};

void RegisterAll() {
  // spin ~ extra FLOPs per evaluation; 3000 is roughly 1 microsecond.
  for (int spin : {0, 3000, 30000}) {
    for (OrdererKind algo :
         {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi}) {
      for (int k : {10, 100}) {
        stats::WorkloadOptions options;
        options.query_length = 3;
        options.bucket_size = 12;
        options.regions_per_bucket = 16;
        options.overlap_rate = 0.3;
        options.seed = 2014;
        std::string name = "eval-cost-tradeoff/" + OrdererKindName(algo) +
                           "/spin:" + std::to_string(spin) +
                           "/k:" + std::to_string(k);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [algo, spin, options, k](benchmark::State& state) {
              const stats::Workload& workload = CachedWorkload(options);
              EpisodeResult last;
              for (auto _ : state) {
                utility::CoverageModel coverage(&workload);
                CostlyStatisticsModel model(&workload, &coverage, spin);
                last = RunEpisode({algo}, &model, workload, k);
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
