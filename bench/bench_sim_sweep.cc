/// Throughput of the simulation harness itself (src/sim/): scenarios
/// verified per second, and the relative cost of the exhaustive-order
/// oracle versus simply draining an orderer. The sweep is the correctness
/// backstop every later perf/refactor PR runs in CI (DESIGN.md §7), so its
/// own cost budget matters: the `checks_per_scenario` counter shows how
/// much differential coverage one generated scenario buys, and the oracle
/// benchmark bounds how large a plan space the O(plans^2) recomputation can
/// afford inside the tier-1 smoke.

#include "bench_util.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "sim/scenario.h"

namespace planorder::bench {
namespace {

void RegisterAll() {
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
    stats::WorkloadOptions options;
    options.query_length = 3;
    options.bucket_size = size;
    options.regions_per_bucket = 12;
    options.overlap_rate = 0.3;
    options.seed = 2026;
    const std::string name =
        "sim-oracle/plans:" + std::to_string(size * size * size);
    benchmark::RegisterBenchmark(
        name.c_str(),
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
  planorder::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
