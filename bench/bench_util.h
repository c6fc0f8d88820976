#ifndef PLANORDER_BENCH_BENCH_UTIL_H_
#define PLANORDER_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/logging.h"
#include "bench_flags.h"
#include "core/orderer_factory.h"
#include "reference/orderer_factory.h"
#include "utility/measures.h"

namespace planorder::bench {

// BenchFlags / ParseBenchFlags / Json / WriteBenchJson / NowWallMs live in
// bench_flags.h (no google-benchmark dependency) so tests/bench_flags_test.cc
// can exercise the flag parser and the JSON writer without linking the
// benchmark driver.

/// The ordering algorithms under comparison (Section 6) are named by
/// core::OrdererKind: Streamer and iDrips versus the PI reference, plus
/// Greedy and the naive brute force for the supplementary experiments.
using core::OrdererKind;
using core::OrdererKindName;

/// Workloads are cached per option signature so that the timed region of a
/// benchmark covers exactly what the paper measures: from query issue (given
/// buckets) until the first k plans are found. Bucket/statistics generation
/// is excluded, as in Section 6.
inline const stats::Workload& CachedWorkload(
    const stats::WorkloadOptions& options) {
  static auto* cache = new std::map<std::string, stats::Workload>();
  std::string key = std::to_string(options.query_length) + "/" +
                    std::to_string(options.bucket_size) + "/" +
                    std::to_string(options.overlap_rate) + "/" +
                    std::to_string(options.regions_per_bucket) + "/" +
                    std::to_string(options.alpha_min) + "/" +
                    std::to_string(options.alpha_max) + "/" +
                    std::to_string(options.failure_min) + "/" +
                    std::to_string(options.failure_max) + "/" +
                    std::to_string(options.seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto workload = stats::Workload::Generate(options);
    PLANORDER_CHECK(workload.ok()) << workload.status();
    it = cache->emplace(key, std::move(*workload)).first;
  }
  return it->second;
}

struct EpisodeResult {
  int64_t evaluations = 0;
  int plans_emitted = 0;
};

/// One ordering episode: build the orderer `spec` names over the full plan
/// space and emit the first k plans (fewer if the space is smaller).
inline EpisodeResult RunEpisode(const core::OrdererSpec& spec,
                                utility::UtilityModel* model,
                                const stats::Workload& workload, int k) {
  auto orderer = core::MakeReferenceOrderer(
      spec, &workload, model, {core::PlanSpace::FullSpace(workload)});
  PLANORDER_CHECK(orderer.ok()) << orderer.status();
  EpisodeResult result;
  for (int i = 0; i < k; ++i) {
    auto next = (*orderer)->Next();
    if (!next.ok()) break;
    benchmark::DoNotOptimize(next->utility);
    ++result.plans_emitted;
  }
  result.evaluations = (*orderer)->plan_evaluations();
  return result;
}

inline EpisodeResult RunEpisode(const core::OrdererSpec& spec,
                                utility::MeasureKind measure,
                                const stats::Workload& workload, int k) {
  auto model = utility::MakeMeasure(measure, &workload);
  PLANORDER_CHECK(model.ok()) << model.status();
  return RunEpisode(spec, model->get(), workload, k);
}

/// Registers one timed ordering episode as benchmark `name`: each iteration
/// runs `episode` over the cached workload for `options`, and the last run's
/// plan evaluations report as the `evals` counter (its emissions as
/// `emitted` too when `report_emitted`). Milliseconds, MinTime 0.02 s.
inline void RegisterEpisode(
    const std::string& name, const stats::WorkloadOptions& options,
    std::function<EpisodeResult(const stats::Workload&)> episode,
    bool report_emitted = false) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [options, episode = std::move(episode),
       report_emitted](benchmark::State& state) {
        const stats::Workload& workload = CachedWorkload(options);
        EpisodeResult last;
        for (auto _ : state) last = episode(workload);
        state.counters["evals"] = double(last.evaluations);
        if (report_emitted) {
          state.counters["emitted"] = double(last.plans_emitted);
        }
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);
}

/// The common episode: the orderer `spec` names under `measure`, first k
/// plans.
inline void RegisterEpisode(const std::string& name,
                            const core::OrdererSpec& spec,
                            utility::MeasureKind measure,
                            const stats::WorkloadOptions& options, int k,
                            bool report_emitted = false) {
  RegisterEpisode(
      name, options,
      [spec, measure, k](const stats::Workload& workload) {
        return RunEpisode(spec, measure, workload, k);
      },
      report_emitted);
}

}  // namespace planorder::bench

#endif  // PLANORDER_BENCH_BENCH_UTIL_H_
