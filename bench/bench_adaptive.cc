/// Warm-restart and mid-stream re-rank benchmark of the adaptive layer
/// (DESIGN.md §12), written as BENCH_adaptive.json:
///
///   cold    — fresh service, empty plan store: time-to-first-emission pays
///             the bucket algorithm plus the full-instance statistics scan.
///   warm    — fresh service over the store the cold run persisted: the
///             reformulation comes back from disk, so the first emission
///             skips both. The run must replay the cold session byte for
///             byte (checked, and recorded as "byte_identical").
///   drifted — an AdaptiveOrderer whose observed statistics drift out of
///             band mid-stream: measures the cost of discard-and-reorder
///             (per-rebuild latency) against a blind run of the same stream.
///
/// Usage: bench_adaptive [output.json] [--repeats=R] (bench_flags.h).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "adaptive/adaptive_orderer.h"
#include "adaptive/observed_stats.h"
#include "adaptive/plan_store.h"
#include "base/logging.h"
#include "bench_flags.h"
#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "service/query_service.h"
#include "stats/workload.h"

namespace planorder::bench {
namespace {

constexpr int kMaxPlans = 24;

struct SessionRun {
  double open_ms = 0.0;        // OpenSession alone (reformulation path)
  double first_step_ms = 0.0;  // open + first emission: time-to-first
  double total_ms = 0.0;       // open + full drain
  std::vector<exec::MediatorStep> steps;
  std::set<std::string> answers;
};

std::set<std::string> AnswerSet(
    const std::vector<std::vector<datalog::Term>>& tuples) {
  std::set<std::string> rendered;
  for (const auto& tuple : tuples) {
    std::string row;
    for (const datalog::Term& term : tuple) row += term.ToString() + "|";
    rendered.insert(row);
  }
  return rendered;
}

SessionRun DrainOnce(service::QueryService& service,
                     const datalog::ConjunctiveQuery& query) {
  exec::Mediator::RunLimits limits;
  limits.max_plans = kMaxPlans;
  SessionRun run;
  const double start_ms = NowWallMs();
  auto session = service.OpenSession(query, limits);
  PLANORDER_CHECK(session.ok()) << session.status();
  run.open_ms = NowWallMs() - start_ms;
  bool first = true;
  while (true) {
    auto step = (*session)->NextStep();
    if (!step.ok()) break;
    if (first) {
      run.first_step_ms = NowWallMs() - start_ms;
      first = false;
    }
    run.steps.push_back(*step);
  }
  run.total_ms = NowWallMs() - start_ms;
  run.answers = AnswerSet((*session)->Answers());
  (void)(*session)->Finish();
  return run;
}

bool SameTrace(const SessionRun& a, const SessionRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].plan != b.steps[i].plan ||
        a.steps[i].new_answers != b.steps[i].new_answers ||
        a.steps[i].total_answers != b.steps[i].total_answers) {
      return false;
    }
  }
  return a.answers == b.answers;
}

double MinOf(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

double MeanOf(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / double(samples.size());
}

/// The drifted leg: drain an AdaptiveOrderer over a generated workload,
/// feeding every emission's sources back at `factor` times their estimated
/// cardinality. factor=1 stays in band (no rebuilds); a large factor forces
/// mid-stream discard-and-reorder, whose cost is the per-emission delta.
struct DriftRun {
  int emissions = 0;
  int rebuilds = 0;
  double total_ms = 0.0;
};

DriftRun DrainAdaptive(const stats::Workload& workload, double factor) {
  std::vector<std::vector<std::string>> names(size_t(workload.num_buckets()));
  for (int b = 0; b < workload.num_buckets(); ++b) {
    for (int i = 0; i < workload.bucket_size(b); ++i) {
      names[size_t(b)].push_back("b" + std::to_string(b) + "_s" +
                                 std::to_string(i));
    }
  }
  adaptive::ObservedStats observed;
  adaptive::AdaptiveOptions options;
  options.inner = core::OrdererKind::kIDrips;
  options.measure = utility::MeasureKind::kCost2;
  options.drift.band = 2.0;
  options.drift.min_calls = 1;
  auto orderer =
      adaptive::AdaptiveOrderer::Create(&workload, names, &observed, options);
  PLANORDER_CHECK(orderer.ok()) << orderer.status();

  DriftRun run;
  const double start_ms = NowWallMs();
  while (true) {
    auto next = (*orderer)->Next();
    if (!next.ok()) break;
    ++run.emissions;
    for (size_t b = 0; b < next->plan.size(); ++b) {
      runtime::SourceObservation obs;
      obs.rows = int64_t(
          workload.source(int(b), next->plan[b]).cardinality * factor);
      obs.attempts = 1;
      obs.latency_micros = 1000;
      observed.RecordFetch(names[b][size_t(next->plan[b])], obs);
    }
    observed.FoldWindow();
  }
  run.total_ms = NowWallMs() - start_ms;
  run.rebuilds = (*orderer)->rebuilds();
  return run;
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "BENCH_adaptive.json",
                                           /*default_threads=*/{},
                                           /*default_repeats=*/5);
  const int repeats = flags.repeats > 0 ? flags.repeats : 5;

  stats::WorkloadOptions wopts;
  wopts.query_length = 3;
  wopts.bucket_size = 4;
  wopts.overlap_rate = 0.3;
  wopts.regions_per_bucket = 8;
  wopts.seed = 23;
  auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/400);
  PLANORDER_CHECK(domain.ok()) << domain.status();
  const exec::SyntheticDomain& d = **domain;

  const std::string store_path = "bench_adaptive.planstore";
  std::remove(store_path.c_str());

  std::vector<double> cold_first, cold_total, warm_first, warm_total;
  SessionRun cold_reference;
  bool byte_identical = true;
  int64_t entries_loaded = 0;
  for (int r = 0; r < repeats; ++r) {
    // Cold: every repeat starts from an absent store and pays the full
    // reformulation; the run persists it for the warm leg below.
    std::remove(store_path.c_str());
    adaptive::PlanStore store(store_path);
    service::ServiceOptions options;
    options.plan_store = &store;
    {
      service::QueryService cold(&d.catalog, &d.source_facts, options);
      SessionRun run = DrainOnce(cold, d.query);
      cold_first.push_back(run.first_step_ms);
      cold_total.push_back(run.total_ms);
      if (r == 0) cold_reference = std::move(run);
    }
    // Warm: a fresh service over the just-persisted store. Identical answers
    // in identical order are part of the contract being measured.
    service::QueryService warm(&d.catalog, &d.source_facts, options);
    entries_loaded = warm.Metrics().plan_store_entries_loaded;
    PLANORDER_CHECK(entries_loaded > 0) << "warm leg found an empty store";
    SessionRun run = DrainOnce(warm, d.query);
    warm_first.push_back(run.first_step_ms);
    warm_total.push_back(run.total_ms);
    byte_identical = byte_identical && SameTrace(run, cold_reference);
  }
  std::remove(store_path.c_str());
  PLANORDER_CHECK(byte_identical)
      << "warm restart diverged from the cold session";

  // Drifted leg over the estimate workload of the same shape.
  auto workload = stats::Workload::Generate(wopts);
  PLANORDER_CHECK(workload.ok()) << workload.status();
  std::vector<double> blind_ms, drift_ms;
  DriftRun drifted;
  for (int r = 0; r < repeats; ++r) {
    blind_ms.push_back(DrainAdaptive(*workload, 1.0).total_ms);
    drifted = DrainAdaptive(*workload, 12.0);
    drift_ms.push_back(drifted.total_ms);
  }
  PLANORDER_CHECK(drifted.rebuilds > 0)
      << "drifted leg never left the divergence band";

  const double speedup =
      MinOf(warm_first) > 0.0 ? MinOf(cold_first) / MinOf(warm_first) : 0.0;
  std::cout << "cold  time-to-first " << MinOf(cold_first) << " ms (min of "
            << repeats << ")\nwarm  time-to-first " << MinOf(warm_first)
            << " ms  (" << speedup << "x, byte-identical)\ndrift "
            << drifted.rebuilds << " rebuilds over " << drifted.emissions
            << " emissions, " << MinOf(drift_ms) << " ms vs "
            << MinOf(blind_ms) << " ms blind\n";

  WriteBenchJson(
      flags, "adaptive",
      {{"max_plans", kMaxPlans},
       {"repeats", repeats},
       {"store_entries_loaded", entries_loaded},
       {"cold", Json::Object({{"first_emission_ms_min", MinOf(cold_first)},
                              {"first_emission_ms_mean", MeanOf(cold_first)},
                              {"total_ms_min", MinOf(cold_total)}})},
       {"warm", Json::Object({{"first_emission_ms_min", MinOf(warm_first)},
                              {"first_emission_ms_mean", MeanOf(warm_first)},
                              {"total_ms_min", MinOf(warm_total)},
                              {"byte_identical", byte_identical},
                              {"first_emission_speedup", speedup}})},
       {"drifted", Json::Object({{"emissions", drifted.emissions},
                                 {"rebuilds", drifted.rebuilds},
                                 {"total_ms_min", MinOf(drift_ms)},
                                 {"blind_total_ms_min", MinOf(blind_ms)}})}});
  return 0;
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) { return planorder::bench::Main(argc, argv); }
