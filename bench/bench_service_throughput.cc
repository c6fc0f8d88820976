/// Benchmark of the concurrent multi-query mediator service (src/service/):
/// a repeated-query workload — T client threads each issuing isomorphic
/// variants of one conjunctive query — runs once against a service with the
/// canonical-reformulation cache enabled and once with it disabled. The
/// cache collapses every variant to one canonical form, so all but the first
/// query skip the bucket algorithm and the instance-driven workload
/// estimation (the expensive front half of mediation). Reports aggregate
/// wall-clock, per-query latency percentiles, cache statistics and the
/// cached-vs-uncached speedup as JSON (BENCH_service.json).
///
/// Usage: bench_service_throughput [output.json] [--threads=T] [--repeats=Q]
/// where T is the number of client threads and Q the queries each issues.

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "bench_flags.h"
#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "service/query_service.h"

namespace planorder::bench {
namespace {

int kClientThreads = 4;    // --threads
int kQueriesPerClient = 8; // --repeats
constexpr int kVariants = 8;
constexpr int kMaxPlans = 1;

/// Isomorphic copies of `query`: every variable renamed with a per-variant
/// suffix. All canonicalize to the same form; none is textually identical.
std::vector<datalog::ConjunctiveQuery> MakeVariants(
    const datalog::ConjunctiveQuery& query, int count) {
  std::vector<datalog::ConjunctiveQuery> variants;
  for (int v = 0; v < count; ++v) {
    datalog::Substitution renaming;
    auto collect = [&renaming, v](const datalog::Atom& atom) {
      for (const datalog::Term& term : atom.args) {
        if (term.is_variable()) {
          renaming[term.name()] = datalog::Term::Variable(
              term.name() + "_client" + std::to_string(v));
        }
      }
    };
    collect(query.head);
    for (const datalog::Atom& atom : query.body) collect(atom);
    datalog::ConjunctiveQuery variant(
        datalog::ApplySubstitution(query.head, renaming), {});
    for (const datalog::Atom& atom : query.body) {
      variant.body.push_back(datalog::ApplySubstitution(atom, renaming));
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

exec::Mediator::RunLimits Limits() {
  exec::Mediator::RunLimits limits;
  limits.max_plans = kMaxPlans;
  return limits;
}

/// Drives the repeated-query workload: kClientThreads threads, each issuing
/// kQueriesPerClient queries round-robin over the variants. Returns the
/// aggregate wall-clock in milliseconds and checks every query agrees on the
/// total answer count (all variants are the same query).
double DriveWorkload(service::QueryService& service,
                     const std::vector<datalog::ConjunctiveQuery>& variants,
                     size_t* answers) {
  std::vector<size_t> totals(size_t(kClientThreads), 0);
  const double start_ms = NowWallMs();
  std::vector<std::thread> clients;
  clients.reserve(size_t(kClientThreads));
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&service, &variants, &totals, t] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const auto& query =
            variants[size_t(t * kQueriesPerClient + q) % variants.size()];
        auto result = service.RunQuery(query, Limits());
        PLANORDER_CHECK(result.ok()) << result.status();
        if (q == 0) {
          totals[size_t(t)] = result->total_answers;
        } else {
          PLANORDER_CHECK(totals[size_t(t)] == result->total_answers)
              << "variant runs diverged";
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed_ms = NowWallMs() - start_ms;
  for (size_t total : totals) {
    PLANORDER_CHECK(total == totals[0]) << "client runs diverged";
  }
  *answers = totals[0];
  return elapsed_ms;
}

Json MetricsJson(const service::ServiceMetricsSnapshot& m) {
  return Json::Object({{"sessions_completed", m.sessions_completed},
                       {"sessions_shed", m.sessions_shed},
                       {"queue_depth_peak", m.queue_depth_peak},
                       {"cache_hits", m.cache.hits},
                       {"cache_misses", m.cache.misses},
                       {"cache_evictions", m.cache.evictions},
                       {"cache_verifications", m.cache_verifications},
                       {"latency_p50_ms", m.latency.Percentile(50.0)},
                       {"latency_p95_ms", m.latency.Percentile(95.0)},
                       {"latency_p99_ms", m.latency.Percentile(99.0)},
                       {"latency_max_ms", m.latency.max_ms()}});
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(
      argc, argv, "BENCH_service.json", {kClientThreads}, kQueriesPerClient);
  kClientThreads = flags.threads.front();
  kQueriesPerClient = flags.repeats;

  // A source-rich domain: instance statistics scan every source in every
  // bucket (cost grows with bucket_size), while executing one plan touches
  // just one source per subgoal. That is the regime the reformulation cache
  // targets — many candidate sources, moderate per-plan execution.
  stats::WorkloadOptions wopts;
  wopts.query_length = 3;
  wopts.bucket_size = 64;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 16;
  wopts.seed = 11;
  auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/600);
  PLANORDER_CHECK(domain.ok()) << domain.status();
  const exec::SyntheticDomain& d = **domain;

  const std::vector<datalog::ConjunctiveQuery> variants =
      MakeVariants(d.query, kVariants);

  service::ServiceOptions base;
  base.max_active_sessions = kClientThreads;
  base.max_queued_admissions = kClientThreads * kQueriesPerClient;
  base.admission_timeout_ms = 60000.0;

  service::ServiceOptions uncached = base;
  uncached.cache_capacity = 0;
  service::QueryService cold_service(&d.catalog, &d.source_facts, uncached);
  size_t cold_answers = 0;
  const double cold_ms = DriveWorkload(cold_service, variants, &cold_answers);

  service::QueryService warm_service(&d.catalog, &d.source_facts, base);
  size_t warm_answers = 0;
  const double warm_ms = DriveWorkload(warm_service, variants, &warm_answers);

  PLANORDER_CHECK(cold_answers == warm_answers)
      << "cached run diverged from uncached run";
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  const service::ServiceMetricsSnapshot cold_metrics = cold_service.Metrics();
  const service::ServiceMetricsSnapshot warm_metrics = warm_service.Metrics();
  std::cout << "repeated-query workload: " << kClientThreads << " clients x "
            << kQueriesPerClient << " queries over " << kVariants
            << " isomorphic variants\n"
            << "  no cache:   " << cold_ms << " ms total, p95 "
            << cold_metrics.latency.Percentile(95.0) << " ms\n"
            << "  with cache: " << warm_ms << " ms total, p95 "
            << warm_metrics.latency.Percentile(95.0) << " ms, "
            << warm_metrics.cache.hits << " hits / "
            << warm_metrics.cache.misses << " misses\n"
            << "  aggregate throughput speedup: " << speedup << "x\n";

  WriteBenchJson(flags, "service_throughput",
                 {{"client_threads", kClientThreads},
                  {"queries_per_client", kQueriesPerClient},
                  {"isomorphic_variants", kVariants},
                  {"max_plans", kMaxPlans},
                  {"answers_per_query", warm_answers},
                  {"uncached_total_ms", cold_ms},
                  {"cached_total_ms", warm_ms},
                  {"speedup", speedup},
                  {"uncached_metrics", MetricsJson(cold_metrics)},
                  {"cached_metrics", MetricsJson(warm_metrics)}});
  return 0;
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) { return planorder::bench::Main(argc, argv); }
