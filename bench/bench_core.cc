/// Benchmark of the incremental ordering core: full-order emission (every
/// plan of the space, figure-6 style coverage workload) through the
/// persistent-frontier iDrips orderer, against the rebuild-every-emission
/// mode (the pre-incremental behavior), reporting wall clock and utility
/// evaluations per emission for both. Results go to BENCH_core.json.
///
/// Usage: bench_core [output.json] [--repeats=R]
/// Persistent-mode wall clock is the best of R runs (default 3).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "base/logging.h"
#include "bench_flags.h"
#include "core/orderer_factory.h"
#include "stats/workload.h"
#include "utility/measures.h"

namespace planorder::bench {
namespace {

struct RunResult {
  double ms = 0.0;
  int64_t evaluations = 0;
  std::vector<core::OrderedPlan> emissions;
};

/// One full-order emission episode: build the orderer over the full plan
/// space and drain it. The timed region spans orderer construction through
/// the last emission, the paper's "time to find the first k plans" with k =
/// everything.
RunResult RunIDrips(const stats::Workload& workload, bool persistent) {
  auto model = utility::MakeMeasure(utility::MeasureKind::kCoverage, &workload);
  PLANORDER_CHECK(model.ok()) << model.status();
  RunResult result;
  const double start_ms = NowWallMs();
  auto orderer = core::MakeOrderer(
      {persistent ? core::OrdererKind::kIDrips
                  : core::OrdererKind::kIDripsRebuild},
      &workload, model->get(), {core::PlanSpace::FullSpace(workload)});
  PLANORDER_CHECK(orderer.ok()) << orderer.status();
  while (true) {
    auto next = (*orderer)->Next();
    if (!next.ok()) {
      PLANORDER_CHECK(next.status().code() == StatusCode::kNotFound)
          << next.status();
      break;
    }
    result.emissions.push_back(*next);
  }
  result.ms = NowWallMs() - start_ms;
  result.evaluations = (*orderer)->plan_evaluations();
  return result;
}

int Main(int argc, char** argv) {
  const BenchFlags flags =
      ParseBenchFlags(argc, argv, "BENCH_core.json", {}, 3);
  const int repeats = std::max(flags.repeats, 1);

  // The figure-6 coverage setting (fig6.coverage in bench_figures.cc) at its largest
  // bucket size, full-order emission.
  stats::WorkloadOptions wopts;
  wopts.query_length = 4;
  wopts.bucket_size = 8;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 32;
  wopts.seed = 21;
  const auto generated = stats::Workload::Generate(wopts);
  PLANORDER_CHECK(generated.ok()) << generated.status();
  const stats::Workload& workload = *generated;

  RunResult persistent = RunIDrips(workload, /*persistent=*/true);
  for (int r = 1; r < repeats; ++r) {
    persistent.ms = std::min(persistent.ms, RunIDrips(workload, true).ms);
  }
  const size_t plans = persistent.emissions.size();
  std::cout << "full order: " << plans << " plans, " << persistent.ms << " ms, "
            << persistent.evaluations << " evals\n";

  // Evaluations per emission: persistent frontier vs rebuild-from-roots (the
  // seed behavior). One run — it is 30x slower and only the counter matters.
  RunResult rebuild = RunIDrips(workload, /*persistent=*/false);
  PLANORDER_CHECK(rebuild.emissions.size() == plans);
  for (size_t i = 0; i < plans; ++i) {
    // Exact ordering either way: identical utility sequences (plans may
    // differ on exact ties).
    PLANORDER_CHECK(
        std::abs(rebuild.emissions[i].utility - persistent.emissions[i].utility) <=
        1e-9)
        << "rebuild mode diverged at emission " << i;
  }
  const double persistent_per_emission =
      double(persistent.evaluations) / double(plans);
  const double rebuild_per_emission =
      double(rebuild.evaluations) / double(plans);
  std::cout << "evals/emission: persistent " << persistent_per_emission
            << " vs rebuild " << rebuild_per_emission << " ("
            << rebuild_per_emission / persistent_per_emission
            << "x fewer), wall clock " << persistent.ms << " vs " << rebuild.ms
            << " ms\n";

  // Evaluation throughput survives workload retuning better than raw
  // milliseconds.
  const double evals_per_sec =
      double(persistent.evaluations) / (persistent.ms / 1000.0);
  std::cout << "throughput: " << evals_per_sec << " evals/s\n";

  // Headline: against the seed's rebuild-every-emission iDrips.
  const double speedup_vs_seed = rebuild.ms / persistent.ms;
  std::cout << "speedup vs seed (rebuild-mode) iDrips: " << speedup_vs_seed
            << "x\n";

  WriteBenchJson(
      flags, "core",
      {{"workload",
        Json::Object({{"query_length", wopts.query_length},
                      {"bucket_size", wopts.bucket_size},
                      {"overlap_rate", wopts.overlap_rate},
                      {"regions_per_bucket", wopts.regions_per_bucket},
                      {"seed", wopts.seed},
                      {"measure", "coverage"}})},
       {"plans_emitted", plans},
       {"repeats", repeats},
       {"serial_ms", persistent.ms},
       {"serial_evals_per_sec", evals_per_sec},
       // The checked-in serial result before the flat ordering core (arena +
       // bitmask coverage + frontier heaps + lazy refresh) landed, so the
       // regenerated JSON records the improvement next to the old numbers.
       {"baseline", Json::Object({{"serial_ms", 1014.04},
                                  {"persistent_total_evaluations", 659822}})},
       {"serial_speedup_vs_baseline", 1014.04 / persistent.ms},
       {"evaluations",
        Json::Object({{"persistent_total", persistent.evaluations},
                      {"rebuild_total", rebuild.evaluations},
                      {"persistent_per_emission", persistent_per_emission},
                      {"rebuild_per_emission", rebuild_per_emission},
                      {"reduction_factor",
                       rebuild_per_emission / persistent_per_emission},
                      {"rebuild_serial_ms", rebuild.ms}})},
       {"speedup_vs_seed_idrips", speedup_vs_seed}});
  return 0;
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) { return planorder::bench::Main(argc, argv); }
