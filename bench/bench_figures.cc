/// The paper-figure benchmarks: the Figure 6 grids, the Section 4 Greedy and
/// Section 6 supplementary rows as one table, then the Section 6 text sweeps,
/// the ablations and the simulation-harness throughput. One google-benchmark
/// binary; pick a figure with a name filter, e.g.
///   bench_figures --benchmark_filter=^fig6.coverage/
///   bench_figures --benchmark_filter=/k:1/      (the CI smoke run)

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_topk.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "sim/scenario.h"
#include "utility/coverage_model.h"

namespace planorder::bench {
namespace {

/// The Section 6 setting shared by the grids and most sweeps: query length 3,
/// overlap rate 0.3, 16 coverage regions per bucket.
stats::WorkloadOptions PaperSetting(uint64_t seed) {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.overlap_rate = 0.3;
  options.regions_per_bucket = 16;
  options.seed = seed;
  return options;
}

/// Source failure probabilities drawn from [0.05, 0.5].
stats::WorkloadOptions WithFailures(stats::WorkloadOptions options) {
  options.failure_min = 0.05;
  options.failure_max = 0.5;
  return options;
}

/// One Figure-6 style grid: time to the first k in {1, 10, 100} plans vs
/// bucket size, one series per algorithm. Benchmark names look like
///   fig6.coverage/streamer/size:12/k:10
/// and report `evals` (plan evaluations per episode) and `emitted`.
struct GridRow {
  std::string label;
  utility::MeasureKind measure;
  std::vector<OrdererKind> algos;
  std::vector<int> sizes;
  stats::WorkloadOptions base;
};

std::vector<GridRow> GridTable() {
  using utility::MeasureKind;
  const OrdererKind kStreamer = OrdererKind::kStreamer;
  const OrdererKind kIDrips = OrdererKind::kIDrips;
  const OrdererKind kPi = OrdererKind::kPi;
  const std::vector<int> fig6_sizes = {4, 8, 12, 16, 20};
  const std::vector<int> greedy_sizes = {8, 16, 32, 48, 64};
  stats::WorkloadOptions uniform_alpha = PaperSetting(2008);
  uniform_alpha.alpha_min = 0.3;
  uniform_alpha.alpha_max = 0.3;
  return {
      // Figure 6.a-c: plan coverage. Paper shape: Streamer fastest for the
      // first several plans (its abstraction evaluates <4% of PI's plans in
      // iteration one and recycles dominance links afterwards); iDrips also
      // beats PI early but falls behind PI by the 100th plan as the
      // cardinality-grouping heuristic stops implying "similar new-tuple
      // contribution".
      {"fig6.coverage", MeasureKind::kCoverage, {kStreamer, kIDrips, kPi},
       fig6_sizes, PaperSetting(2002)},
      // Figure 6.d-f: cost measure (2) with probability of source failure,
      // NO caching. Full plan independence and diminishing returns hold, so
      // Streamer applies. Paper shape: Streamer substantially beats both
      // iDrips and PI — its dominance links never invalidate, so later plans
      // come almost for free, while iDrips rebuilds its abstraction
      // reasoning every iteration.
      {"fig6.failure-nocache", MeasureKind::kFailureNoCache,
       {kStreamer, kIDrips, kPi}, fig6_sizes, WithFailures(PaperSetting(2003))},
      // Figure 6.g-i: cost measure (2) with source failure AND operation
      // caching. Caching zeroes the cost of operations an executed plan
      // already performed, so plans sharing a source operation are dependent
      // and diminishing returns fails: Streamer is NOT applicable. Paper
      // shape: iDrips finds the first several plans very fast compared to PI
      // — the abstraction heuristic stays effective across iterations.
      {"fig6.failure-cache", MeasureKind::kFailureCache, {kIDrips, kPi},
       fig6_sizes, WithFailures(PaperSetting(2004))},
      // Figure 6.j-l: average monetary cost per output tuple, without and
      // with caching. Paper shape: both Streamer and iDrips perform WORSE
      // than PI here. The ratio utility makes the cardinality-grouping
      // abstraction ineffective (cost and output tuples move together, so
      // group intervals stay wide and little is pruned), while the per-plan
      // overhead of maintaining abstract plans remains. Streamer applies only
      // to the no-caching variant.
      {"fig6.monetary", MeasureKind::kMonetary, {kStreamer, kIDrips, kPi},
       {4, 8, 12, 16}, PaperSetting(2005)},
      {"fig6.monetary-cache", MeasureKind::kMonetaryCache, {kIDrips, kPi},
       {4, 8, 12, 16}, PaperSetting(2005)},
      // Section 6 supplementary row: cost measure (2) with varying
      // transmission costs and NO failure term. The paper reports results
      // "very similar" to the failure variant (Figures 6.d-f): Streamer
      // clearly fastest, iDrips in between, PI paying the full plan-space
      // evaluation.
      {"cost2", MeasureKind::kCost2, {kStreamer, kIDrips, kPi}, fig6_sizes,
       PaperSetting(2006)},
      // Section 4: Greedy for fully monotonic measures. The paper proves an
      // O(m n^2 k^2) bound and notes Greedy "clearly outperforms the other
      // algorithms when applicable"; against PI and the naive brute force on
      // measure (1) (additive cost) and on measure (2) with uniform
      // transmission costs (the Section 3 example of a monotonic instance of
      // (2)). Expected shape: Greedy's time to the first plans is
      // near-constant in the bucket size (one evaluation per split space),
      // while PI scales with the full Cartesian product.
      {"greedy.additive", MeasureKind::kAdditive,
       {OrdererKind::kGreedy, kPi, OrdererKind::kNaive}, greedy_sizes,
       PaperSetting(2007)},
      {"greedy.cost2-uniform-alpha", MeasureKind::kCost2UniformAlpha,
       {OrdererKind::kGreedy, kPi}, greedy_sizes, uniform_alpha},
  };
}

void RegisterGrid(const GridRow& row) {
  for (OrdererKind algo : row.algos) {
    for (int size : row.sizes) {
      for (int k : {1, 10, 100}) {
        stats::WorkloadOptions options = row.base;
        options.bucket_size = size;
        RegisterEpisode(row.label + "/" + OrdererKindName(algo) +
                            "/size:" + std::to_string(size) +
                            "/k:" + std::to_string(k),
                        {algo}, row.measure, options, k,
                        /*report_emitted=*/true);
      }
    }
  }
}

/// Section 6 text, plan coverage: "Streamer's relative performance compared
/// to PI in finding subsequent plans decreases as the degree of plan
/// independence decreases (i.e., as the overlap rate increases)" — more
/// overlap invalidates more dominance links, so Streamer recycles fewer.
///
/// Series: time to the first 10 and 50 plans at bucket size 12, query
/// length 3, overlap rate swept over {0.1, 0.3, 0.5, 0.7, 0.9}, for
/// Streamer and PI; the `evals` counter exposes the recycling effect
/// directly.
void RegisterOverlapSweep() {
  for (double overlap : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kPi}) {
      for (int k : {10, 50}) {
        stats::WorkloadOptions options = PaperSetting(2009);
        options.bucket_size = 12;
        options.overlap_rate = overlap;
        RegisterEpisode("overlap-sweep/" + OrdererKindName(algo) +
                            "/overlap:" + std::to_string(overlap).substr(0, 3) +
                            "/k:" + std::to_string(k),
                        {algo}, utility::MeasureKind::kCoverage, options, k);
      }
    }
  }
}

/// Section 6 text: "We also experimented with varying query length from 1
/// to 7, and observed the same trends, but with increasing performance gaps
/// as the query length increases."
///
/// Series: time to the first 10 plans, bucket size 4, query length swept
/// 1..7, for Streamer / iDrips / PI on plan coverage and on cost with
/// failure (no caching). PI's work grows with the full 4^m product while
/// the abstraction algorithms touch a sliver of it.
void RegisterQueryLength() {
  for (const auto& [label, measure] :
       {std::pair{"query-length.coverage", utility::MeasureKind::kCoverage},
        std::pair{"query-length.failure-nocache",
                  utility::MeasureKind::kFailureNoCache}}) {
    for (int m = 1; m <= 7; ++m) {
      for (OrdererKind algo :
           {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi}) {
        stats::WorkloadOptions options = PaperSetting(2010);
        options.query_length = m;
        options.bucket_size = 4;
        options.regions_per_bucket = 8;
        RegisterEpisode(std::string(label) + "/" + OrdererKindName(algo) +
                            "/m:" + std::to_string(m) + "/k:10",
                        {algo}, measure, options, 10);
      }
    }
  }
}

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
///
/// Both record counters beyond `evals`, so they register their own bodies.
void RegisterEvalCounts() {
  for (int size : {8, 12, 16, 20, 24}) {
    stats::WorkloadOptions options = PaperSetting(2011);
    options.bucket_size = size;
    benchmark::RegisterBenchmark(
        ("first-iteration-evals/size:" + std::to_string(size)).c_str(),
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

const char* HeuristicName(core::AbstractionHeuristic h) {
  switch (h) {
    case core::AbstractionHeuristic::kByCardinality:
      return "by-cardinality";
    case core::AbstractionHeuristic::kByMaskSimilarity:
      return "by-mask-similarity";
    case core::AbstractionHeuristic::kRandom:
      return "random";
  }
  return "?";
}

/// Ablation over the abstraction heuristic (Section 3 "Source Similarity" /
/// Section 6 "a simple abstraction heuristic that groups sources based on
/// their similarity wrt the number of expected output tuples"). The paper
/// stresses that the algorithms only win "when the domain is amenable to
/// abstraction and an effective abstraction heuristic is used"; these series
/// quantify that by running Streamer and iDrips under
///   - by-cardinality grouping (the paper's heuristic),
///   - by-mask-similarity grouping (groups sources with similar coverage),
///   - random grouping (the floor),
/// on plan coverage, reporting time and plan evaluations to the first 10
/// plans.
void RegisterAbstractionAblation() {
  for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kIDrips}) {
    for (core::AbstractionHeuristic h :
         {core::AbstractionHeuristic::kByCardinality,
          core::AbstractionHeuristic::kByMaskSimilarity,
          core::AbstractionHeuristic::kRandom}) {
      for (int size : {8, 16}) {
        stats::WorkloadOptions options = PaperSetting(2013);
        options.bucket_size = size;
        RegisterEpisode("abstraction-ablation/" + OrdererKindName(algo) + "/" +
                            HeuristicName(h) + "/size:" +
                            std::to_string(size) + "/k:10",
                        {algo, h}, utility::MeasureKind::kCoverage, options,
                        10);
      }
    }
  }
}

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
  bool fully_independent() const override {
    return inner_->fully_independent();
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

 private:
  utility::UtilityModel* inner_;
  int spin_;
};

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
void RegisterEvalCostTradeoff() {
  // spin ~ extra FLOPs per evaluation; 3000 is roughly 1 microsecond.
  for (int spin : {0, 3000, 30000}) {
    for (OrdererKind algo :
         {OrdererKind::kStreamer, OrdererKind::kIDrips, OrdererKind::kPi}) {
      for (int k : {10, 100}) {
        stats::WorkloadOptions options = PaperSetting(2014);
        options.bucket_size = 12;
        RegisterEpisode(
            "eval-cost-tradeoff/" + OrdererKindName(algo) +
                "/spin:" + std::to_string(spin) + "/k:" + std::to_string(k),
            options, [algo, spin, k](const stats::Workload& workload) {
              utility::CoverageModel coverage(&workload);
              CostlyStatisticsModel model(&workload, &coverage, spin);
              return RunEpisode({algo}, &model, workload, k);
            });
      }
    }
  }
}

/// Related work (Section 7): Leser & Naumann's branch-and-bound "returns all
/// k plans at once" under full plan independence, and the paper notes it is
/// unclear whether it can be made incremental. This bench quantifies the
/// trade: batch top-k (BatchTopK) against the incremental Streamer and the
/// PI baseline on the failure-cost measure (full independence), for k known
/// up front. Batch avoids all dominance-graph upkeep but cannot stream:
/// plan k+1 requires a rerun.
void RegisterBatchVsIncremental() {
  for (int size : {12, 20}) {
    for (int k : {1, 10, 100}) {
      stats::WorkloadOptions options = WithFailures(PaperSetting(2016));
      options.bucket_size = size;
      const std::string suffix =
          "/size:" + std::to_string(size) + "/k:" + std::to_string(k);
      RegisterEpisode(
          "batch-vs-incremental/batch-topk" + suffix, options,
          [k](const stats::Workload& workload) {
            auto model = utility::MakeMeasure(
                utility::MeasureKind::kFailureNoCache, &workload);
            PLANORDER_CHECK(model.ok());
            EpisodeResult result;
            auto best = core::BatchTopK(
                &workload, model->get(), {core::PlanSpace::FullSpace(workload)},
                k, core::AbstractionHeuristic::kByCardinality,
                &result.evaluations);
            PLANORDER_CHECK(best.ok()) << best.status();
            benchmark::DoNotOptimize(best->size());
            return result;
          });
      for (OrdererKind algo : {OrdererKind::kStreamer, OrdererKind::kPi}) {
        RegisterEpisode("batch-vs-incremental/" + OrdererKindName(algo) + suffix,
                        {algo}, utility::MeasureKind::kFailureNoCache, options,
                        k);
      }
    }
  }
}

/// Throughput of the simulation harness itself (src/sim/): scenarios
/// verified per second, and the relative cost of the exhaustive-order
/// oracle versus simply draining an orderer. The sweep is the correctness
/// backstop every later perf/refactor change runs in CI (DESIGN.md §7), so
/// its own cost budget matters: the `checks_per_scenario` counter shows how
/// much differential coverage one generated scenario buys, and the oracle
/// benchmark bounds how large a plan space the O(plans^2) recomputation can
/// afford inside the tier-1 smoke.
void RegisterSimSweep() {
  benchmark::RegisterBenchmark(
      "sim-scenarios",
      [](benchmark::State& state) {
        sim::SimOptions options;
        sim::SimReport report;
        int step = 0;
        for (auto _ : state) {
          const sim::Scenario scenario = sim::MakeScenario(2026, step++);
          Status status = sim::RunScenario(scenario, options, &report);
          if (!status.ok()) {
            state.SkipWithError(std::string(status.message()).c_str());
            return;
          }
        }
        state.counters["checks_per_scenario"] =
            double(report.checks) / double(std::max(step, 1));
        state.counters["scenarios_per_s"] = benchmark::Counter(
            double(step), benchmark::Counter::kIsRate);
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.5);

  for (int size : {3, 4, 5}) {
    stats::WorkloadOptions options = PaperSetting(2026);
    options.bucket_size = size;
    options.regions_per_bucket = 12;
    benchmark::RegisterBenchmark(
        ("sim-oracle/plans:" + std::to_string(size * size * size)).c_str(),
        [options](benchmark::State& state) {
          const stats::Workload& workload = CachedWorkload(options);
          const std::vector<core::PlanSpace> spaces = {
              core::PlanSpace::FullSpace(workload)};
          auto model =
              utility::MakeMeasure(utility::MeasureKind::kCoverage, &workload);
          if (!model.ok()) {
            state.SkipWithError("measure rejected workload");
            return;
          }
          auto orderer = core::MakeOrderer({core::OrdererKind::kPi},
                                           &workload, model->get(), spaces);
          if (!orderer.ok()) {
            state.SkipWithError("orderer construction failed");
            return;
          }
          auto emissions = sim::Drain(**orderer);
          if (!emissions.ok()) {
            state.SkipWithError("drain failed");
            return;
          }
          for (auto _ : state) {
            Status status = sim::VerifyExactOrder(
                workload, utility::MeasureKind::kCoverage, spaces, *emissions,
                1e-9);
            if (!status.ok()) {
              state.SkipWithError(std::string(status.message()).c_str());
              return;
            }
          }
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.1);
  }
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) {
  using namespace planorder::bench;
  for (const GridRow& row : GridTable()) RegisterGrid(row);
  RegisterOverlapSweep();
  RegisterQueryLength();
  RegisterEvalCounts();
  RegisterAbstractionAblation();
  RegisterEvalCostTradeoff();
  RegisterBatchVsIncremental();
  RegisterSimSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
