/// Benchmark of ranked (any-k) answer enumeration: Fig-6-style
/// time-to-first-k sweep over bucket size. For each (bucket_size, k) point it
/// times
///   - anyk_first_k_ms: opening a RankedAnswerStream (plan phase: every sound
///     plan pulled from iDrips in utility order, one bottom-up DP each) and
///     pulling the first k ranked answers lazily, and
///   - sort_all_ms: the classic materialize-then-sort baseline — every sound,
///     executable rewriting of the full Cartesian product joined by the
///     brute-force backtracking evaluator, deduplicated and globally sorted
///     (the k-th answer is not available any earlier than the whole order).
/// A full stream drain (anyk_full_ms) is reported alongside so the sweep
/// shows first-k latency growing sublinearly in the answer count while the
/// baseline pays the full materialization regardless of k. Each point also
/// records relations_indexed, the distinct source relations the stream
/// scanned and weighed; the bench aborts unless it equals the distinct
/// (predicate, arity) pairs in the admitted plans' bodies, i.e. unless every
/// relation was indexed once no matter how many plans read it.
/// Results go to BENCH_anyk.json.
///
/// Usage: bench_anyk [output.json] [--k=K[,K2...]] [--repeats=R]
///        [--weights-seed=S]

#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "anyk/brute_force.h"
#include "anyk/ranked_stream.h"
#include "base/logging.h"
#include "bench_util.h"
#include "core/plan_space.h"
#include "exec/synthetic_domain.h"
#include "reformulation/executable_order.h"

namespace planorder::bench {
namespace {

/// Opens the ranked stream over the full plan budget: measure model + iDrips
/// orderer + plan phase. Everything here is inside the caller's timed region.
anyk::RankedAnswerStream OpenStream(const exec::SyntheticDomain& domain,
                                    const anyk::WeightOptions& weights,
                                    int max_plans) {
  auto model = utility::MakeMeasure(utility::MeasureKind::kCoverage,
                                    &domain.workload);
  PLANORDER_CHECK(model.ok()) << model.status();
  auto orderer = core::MakeOrderer(
      {core::OrdererKind::kIDrips}, &domain.workload, model->get(),
      {core::PlanSpace::FullSpace(domain.workload)});
  PLANORDER_CHECK(orderer.ok()) << orderer.status();
  anyk::RankedAnswerStream::Options options;
  options.weights = weights;
  options.max_plans = max_plans;
  auto stream = anyk::RankedAnswerStream::Open(
      domain.catalog, domain.query, domain.source_facts, domain.source_ids,
      **orderer, options);
  PLANORDER_CHECK(stream.ok()) << stream.status();
  return std::move(*stream);
}

struct TimedRun {
  double ms = 0.0;
  size_t answers = 0;
  size_t relations_indexed = 0;  // any-k runs only
};

/// Time from query issue to the k-th ranked answer (fewer if the union is
/// smaller); k <= 0 drains the stream completely.
TimedRun TimeAnyK(const exec::SyntheticDomain& domain,
                  const anyk::WeightOptions& weights, int max_plans, int k) {
  const double start_ms = NowWallMs();
  anyk::RankedAnswerStream stream = OpenStream(domain, weights, max_plans);
  TimedRun run;
  while (k <= 0 || run.answers < size_t(k)) {
    auto next = stream.Next();
    if (!next.ok()) {
      PLANORDER_CHECK(next.status().code() == StatusCode::kNotFound)
          << next.status();
      break;
    }
    benchmark::DoNotOptimize(next->weight);
    ++run.answers;
  }
  run.ms = NowWallMs() - start_ms;
  run.relations_indexed = stream.stats().relations_indexed;
  return run;
}

/// Every sound, executable rewriting of the full Cartesian product, in
/// odometer order: the plans a full-budget stream admits.
std::vector<datalog::ConjunctiveQuery> UsableRewritings(
    const exec::SyntheticDomain& domain) {
  std::vector<datalog::ConjunctiveQuery> rewritings;
  const size_t num_buckets = domain.source_ids.size();
  std::vector<int> odometer(num_buckets, 0);
  while (true) {
    auto resolved = reformulation::ResolvePlan(domain.query, domain.catalog,
                                               domain.source_ids, odometer);
    PLANORDER_CHECK(resolved.ok()) << resolved.status();
    if (resolved->verdict == reformulation::PlanVerdict::kUsable) {
      rewritings.push_back(std::move(resolved->plan.rewriting));
    }
    size_t b = 0;
    for (; b < num_buckets; ++b) {
      if (size_t(++odometer[b]) < domain.source_ids[b].size()) break;
      odometer[b] = 0;
    }
    if (b == num_buckets) break;
  }
  return rewritings;
}

/// Distinct (predicate, arity) pairs over the bodies of `rewritings`.
size_t DistinctRelations(
    const std::vector<datalog::ConjunctiveQuery>& rewritings) {
  std::set<std::pair<std::string, size_t>> relations;
  for (const datalog::ConjunctiveQuery& rewriting : rewritings) {
    for (const datalog::Atom& atom : rewriting.body) {
      relations.emplace(atom.predicate, atom.args.size());
    }
  }
  return relations.size();
}

/// The materialize-then-sort baseline: every sound, executable rewriting of
/// the full Cartesian product, evaluated by the naive backtracking join and
/// globally sorted. The rewriting enumeration is part of the timed region —
/// the baseline, too, starts from the raw query.
TimedRun TimeSortAll(const exec::SyntheticDomain& domain,
                     const anyk::WeightOptions& weights) {
  const double start_ms = NowWallMs();
  auto all = anyk::BruteForceRankedUnion(UsableRewritings(domain),
                                         domain.source_facts, weights);
  PLANORDER_CHECK(all.ok()) << all.status();
  benchmark::DoNotOptimize(all->data());
  TimedRun run;
  run.ms = NowWallMs() - start_ms;
  run.answers = all->size();
  return run;
}

struct GridPoint {
  int bucket_size = 0;
  uint64_t plans = 0;
  size_t answers = 0;
  int k = 0;
  size_t emitted = 0;
  size_t relations_indexed = 0;
  double anyk_first_k_ms = 0.0;
  double anyk_full_ms = 0.0;
  double sort_all_ms = 0.0;
};

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, "BENCH_anyk.json",
                                           /*default_threads=*/{},
                                           /*default_repeats=*/3,
                                           /*default_ks=*/{1, 10, 100});
  const int repeats = std::max(flags.repeats, 1);
  anyk::WeightOptions weights;
  weights.seed = flags.weights_seed;
  weights.aggregation = anyk::Aggregation::kSum;

  const std::vector<int> sizes = {2, 4, 8};
  std::vector<GridPoint> points;
  for (int size : sizes) {
    stats::WorkloadOptions wopts;
    wopts.query_length = 3;
    wopts.bucket_size = size;
    wopts.overlap_rate = 0.4;
    wopts.regions_per_bucket = 16;
    wopts.seed = 31;
    auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/400);
    PLANORDER_CHECK(domain.ok()) << domain.status();
    const exec::SyntheticDomain& d = **domain;
    const uint64_t plans =
        core::PlanSpace::FullSpace(d.workload).NumPlans();

    TimedRun sort_all = TimeSortAll(d, weights);
    TimedRun full = TimeAnyK(d, weights, int(plans), /*k=*/0);
    for (int r = 1; r < repeats; ++r) {
      sort_all.ms = std::min(sort_all.ms, TimeSortAll(d, weights).ms);
      full.ms = std::min(full.ms, TimeAnyK(d, weights, int(plans), 0).ms);
    }
    PLANORDER_CHECK(full.answers == sort_all.answers)
        << "stream drained " << full.answers << " answers, sort-all baseline "
        << sort_all.answers;
    const size_t relations = DistinctRelations(UsableRewritings(d));

    for (int k : flags.ks) {
      TimedRun first_k = TimeAnyK(d, weights, int(plans), k);
      for (int r = 1; r < repeats; ++r) {
        first_k.ms =
            std::min(first_k.ms, TimeAnyK(d, weights, int(plans), k).ms);
      }
      GridPoint point;
      point.bucket_size = size;
      point.plans = plans;
      point.answers = sort_all.answers;
      point.k = k;
      point.emitted = first_k.answers;
      PLANORDER_CHECK(first_k.relations_indexed == relations)
          << "stream indexed " << first_k.relations_indexed
          << " relations; the admitted plans read " << relations;
      point.relations_indexed = first_k.relations_indexed;
      point.anyk_first_k_ms = first_k.ms;
      point.anyk_full_ms = full.ms;
      point.sort_all_ms = sort_all.ms;
      points.push_back(point);
      std::cout << "size=" << size << " plans=" << plans << " answers="
                << point.answers << " k=" << k << ": any-k " << first_k.ms
                << " ms to the first " << first_k.answers
                << ", sort-all " << sort_all.ms << " ms ("
                << sort_all.ms / std::max(first_k.ms, 1e-9) << "x)\n";
    }
  }

  Json sweep = Json::Array();
  for (const GridPoint& p : points) {
    sweep.Push(Json::Object(
        {{"bucket_size", p.bucket_size},
         {"plans", p.plans},
         {"answers", p.answers},
         {"k", p.k},
         {"emitted", p.emitted},
         {"relations_indexed", p.relations_indexed},
         {"anyk_first_k_ms", p.anyk_first_k_ms},
         {"anyk_full_ms", p.anyk_full_ms},
         {"sort_all_ms", p.sort_all_ms},
         {"speedup_first_k",
          p.sort_all_ms / std::max(p.anyk_first_k_ms, 1e-9)}}));
  }
  WriteBenchJson(
      flags, "anyk",
      {{"weights",
        Json::Object(
            {{"seed", weights.seed},
             {"aggregation", anyk::AggregationName(weights.aggregation)}})},
       {"sweep", sweep}});
  return 0;
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) { return planorder::bench::Main(argc, argv); }
