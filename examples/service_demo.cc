// The mediator as a multi-query service: concurrent client sessions over one
// shared reformulation cache, with streaming answers and admission control.
//
// Builds a synthetic integration domain, then
//   1. runs one query cold (cache miss: bucket algorithm + workload
//      estimation) and an isomorphic variant hot (cache hit: both collapse
//      to one canonical form), showing identical step traces;
//   2. streams a session step by step — the anytime pull API;
//   3. saturates admission with more clients than slots, showing queueing
//      and load shedding (kResourceExhausted);
//   4. prints the service metrics: cache hit rate, queue depth, latency
//      percentiles.
//
// Build & run:  cmake --build build && ./build/examples/service_demo

#include <cstdio>
#include <thread>
#include <vector>

#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "service/query_service.h"

namespace {

using namespace planorder;

/// An isomorphic copy of `query`: every variable renamed. Same query class,
/// different text — exactly what the canonical cache collapses.
datalog::ConjunctiveQuery RenameVariables(
    const datalog::ConjunctiveQuery& query, const char* suffix) {
  datalog::Substitution renaming;
  auto collect = [&renaming, suffix](const datalog::Atom& atom) {
    for (const datalog::Term& term : atom.args) {
      if (term.is_variable()) {
        renaming[term.name()] = datalog::Term::Variable(term.name() + suffix);
      }
    }
  };
  collect(query.head);
  for (const datalog::Atom& atom : query.body) collect(atom);
  datalog::ConjunctiveQuery renamed(
      datalog::ApplySubstitution(query.head, renaming), {});
  for (const datalog::Atom& atom : query.body) {
    renamed.body.push_back(datalog::ApplySubstitution(atom, renaming));
  }
  return renamed;
}

}  // namespace

int main() {
  stats::WorkloadOptions wopts;
  wopts.query_length = 2;
  wopts.bucket_size = 4;
  wopts.overlap_rate = 0.3;
  wopts.regions_per_bucket = 8;
  wopts.seed = 21;
  auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/200);
  if (!domain.ok()) {
    std::printf("domain: %s\n", domain.status().ToString().c_str());
    return 1;
  }
  const exec::SyntheticDomain& d = **domain;
  std::printf("query: %s\n\n", d.query.ToString().c_str());

  service::ServiceOptions options;
  options.max_active_sessions = 2;
  options.admission_timeout_ms = 0.0;  // full = shed immediately (demo 3)
  service::QueryService service(&d.catalog, &d.source_facts, options);

  exec::Mediator::RunLimits limits;
  limits.max_plans = 8;

  // 1. Cold run, then an isomorphic variant: one canonical form, one miss.
  auto cold = service.RunQuery(d.query, limits);
  if (!cold.ok()) {
    std::printf("cold run: %s\n", cold.status().ToString().c_str());
    return 1;
  }
  const datalog::ConjunctiveQuery variant = RenameVariables(d.query, "_v2");
  auto hot = service.RunQuery(variant, limits);
  if (!hot.ok()) {
    std::printf("hot run: %s\n", hot.status().ToString().c_str());
    return 1;
  }
  std::printf("cold run:  %zu answers over %zu plans (cache miss)\n",
              cold->total_answers, cold->steps.size());
  std::printf("hot run:   %zu answers over %zu plans (isomorph, cache hit)\n",
              hot->total_answers, hot->steps.size());
  std::printf("identical traces: %s\n\n",
              cold->total_answers == hot->total_answers &&
                      cold->steps.size() == hot->steps.size()
                  ? "yes"
                  : "NO (bug!)");

  // 2. Streaming session: pull one plan at a time, stop when satisfied.
  auto session = service.OpenSession(d.query, limits);
  if (!session.ok()) {
    std::printf("session: %s\n", session.status().ToString().c_str());
    return 1;
  }
  std::printf("streaming session (stop once 60%% of answers are in):\n");
  while (true) {
    auto step = (*session)->NextStep();
    if (!step.ok()) break;
    std::printf("  plan utility=%.4f  +%zu answers (total %zu)\n",
                step->estimated_utility, step->new_answers,
                step->total_answers);
    if (step->total_answers * 10 >= cold->total_answers * 6) {
      std::printf("  satisfied early - closing the session\n");
      break;
    }
  }
  (*session)->Finish();
  std::printf("\n");

  // 3. Admission control: both slots held by open streaming sessions, so
  //    incoming clients with no queueing patience are shed immediately.
  auto held_a = service.OpenSession(d.query, limits);
  auto held_b = service.OpenSession(d.query, limits);
  if (!held_a.ok() || !held_b.ok()) {
    std::printf("holding sessions failed\n");
    return 1;
  }
  std::vector<std::thread> clients;
  std::vector<StatusCode> outcomes(5, StatusCode::kOk);
  for (int c = 0; c < 5; ++c) {
    clients.emplace_back([&service, &d, &limits, &outcomes, c] {
      auto result = service.RunQuery(d.query, limits);
      outcomes[size_t(c)] = result.status().code();
    });
  }
  for (std::thread& client : clients) client.join();
  (*held_a)->Finish();
  (*held_b)->Finish();
  int ok = 0;
  int shed = 0;
  for (StatusCode code : outcomes) {
    if (code == StatusCode::kOk) ++ok;
    if (code == StatusCode::kResourceExhausted) ++shed;
  }
  std::printf("admission: 5 clients while 2 sessions hold both slots -> "
              "%d served, %d shed (kResourceExhausted)\n\n", ok, shed);

  // 4. Service metrics.
  const service::ServiceMetricsSnapshot m = service.Metrics();
  std::printf("metrics:\n");
  std::printf("  sessions: %lld admitted, %lld completed, %lld shed\n",
              static_cast<long long>(m.sessions_admitted),
              static_cast<long long>(m.sessions_completed),
              static_cast<long long>(m.sessions_shed));
  std::printf("  cache:    %lld hits, %lld misses, %zu resident\n",
              static_cast<long long>(m.cache.hits),
              static_cast<long long>(m.cache.misses), m.cache.size);
  std::printf("  latency:  p50=%.2fms p95=%.2fms max=%.2fms over %llu runs\n",
              m.latency.Percentile(50.0), m.latency.Percentile(95.0),
              m.latency.max_ms(),
              static_cast<unsigned long long>(m.latency.count()));
  return 0;
}
