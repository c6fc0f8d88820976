// The sharded cluster with a cross-session source-operation cache
// (src/cluster/, DESIGN.md §10): two sessions of the same query class run
// back to back against one SourceOperationCache, and the demo prints how the
// second session's plan ORDER shifts — not because the query changed, but
// because the first session's fetches made some source operations free, and
// the cache-aware utility measure (failure/cache, paper Section 6) re-ranks
// the not-yet-executed plans around the now-zero-cost sources.
//
//   1. Session A drains cold: every fetch pays simulated network latency and
//      publishes its result into the shared cache.
//   2. Session B (isomorphic query, fresh session) drains against the warm
//      cache: its orderer polls the residency view before every emission, so
//      plans over cached sources are charged zero residual cost and jump
//      ahead. The demo prints both emission sequences side by side plus the
//      cache hit counters proving B's fetches were served locally.
//   3. MergedMetrics() shows the cluster-level aggregation (per-shard
//      counters summed, latency histograms merged bucket by bucket).
//
// Build & run:  cmake --build build && ./build/examples/cluster_demo

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/sharded_service.h"
#include "cluster/source_cache.h"
#include "exec/synthetic_domain.h"
#include "runtime/source_runtime.h"
#include "utility/measures.h"

using namespace planorder;

namespace {

/// Renders one session's emission order as "p3 p1 p0 ..." where the digits
/// are each plan's source choices per bucket — enough to see reordering.
std::string PlanTrace(const std::vector<exec::MediatorStep>& steps) {
  std::string trace;
  for (const exec::MediatorStep& step : steps) {
    trace += " [";
    for (size_t b = 0; b < step.plan.size(); ++b) {
      if (b > 0) trace += ".";
      trace += std::to_string(step.plan[b]);
    }
    trace += "]";
  }
  return trace;
}

}  // namespace

int main() {
  stats::WorkloadOptions wopts;
  wopts.query_length = 2;
  wopts.bucket_size = 3;
  wopts.overlap_rate = 0.5;
  wopts.regions_per_bucket = 8;
  wopts.seed = 29;
  auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/200);
  if (!domain.ok()) {
    std::printf("domain: %s\n", domain.status().ToString().c_str());
    return 1;
  }
  const exec::SyntheticDomain& d = **domain;
  uint64_t num_plans = 1;
  for (int b = 0; b < d.workload.num_buckets(); ++b) {
    num_plans *= uint64_t(d.workload.bucket_size(b));
  }
  std::printf("query: %s (%d plans)\n\n", d.query.ToString().c_str(),
              int(num_plans));

  // Sources behind the resilient runtime with simulated latency; the shared
  // cache sits in the fetch path, so a repeat operation costs nothing.
  auto registry = exec::BuildSourceRegistry(d.catalog, d.source_facts);
  if (!registry.ok()) return 1;
  cluster::SourceOperationCache cache;
  runtime::RuntimeOptions ropts;
  ropts.num_threads = 2;
  ropts.time_dilation = 0.0;  // simulated latency, no real sleeping
  ropts.default_model.base_latency_ms = 5.0;
  ropts.source_cache = &cache;
  runtime::SourceRuntime runtime(&*registry, ropts);

  cluster::ClusterOptions copts;
  copts.num_shards = 2;
  copts.source_cache = &cache;
  copts.shard.measure = utility::MeasureKind::kFailureCache;
  cluster::ShardedService cluster_service(&d.catalog, &d.source_facts, copts,
                                          &runtime);
  std::printf("cluster: %d shards, query class routes to shard %d\n\n",
              cluster_service.num_shards(), cluster_service.ShardFor(d.query));

  exec::Mediator::RunLimits limits;
  limits.max_plans = int(num_plans);

  auto drain = [&](const char* label) -> std::vector<exec::MediatorStep> {
    std::vector<exec::MediatorStep> steps;
    auto session = cluster_service.OpenSession(d.query, limits);
    if (!session.ok()) {
      std::printf("%s: %s\n", label, session.status().ToString().c_str());
      return steps;
    }
    while (true) {
      auto step = (*session)->NextStep();
      if (!step.ok()) break;
      steps.push_back(*step);
    }
    (*session)->Finish();
    return steps;
  };

  // 1. Session A: cold cache — pays full latency, fills the cache.
  const auto before = cache.stats();
  const std::vector<exec::MediatorStep> first = drain("session A");
  const auto mid = cache.stats();
  std::printf("session A (cold cache):%s\n", PlanTrace(first).c_str());
  std::printf("  cache after A: %lld entries resident, %lld hits\n\n",
              static_cast<long long>(mid.resident_entries),
              static_cast<long long>(mid.hits - before.hits));

  // 2. Session B: warm cache — the residency view zeroes the residual cost
  //    of A's operations, so the cache-aware measure re-ranks the plans.
  const std::vector<exec::MediatorStep> second = drain("session B");
  const auto after = cache.stats();
  std::printf("session B (warm cache):%s\n", PlanTrace(second).c_str());
  std::printf("  cache during B: %lld hits (fetches served without paying "
              "latency)\n",
              static_cast<long long>(after.hits - mid.hits));

  bool shifted = first.size() == second.size() && !first.empty();
  bool same_order = true;
  for (size_t i = 0; i < first.size() && i < second.size(); ++i) {
    if (first[i].plan != second[i].plan) same_order = false;
  }
  std::printf("  plan order shifted vs session A: %s\n\n",
              shifted && !same_order
                  ? "yes (cross-session cache re-ranked the plans)"
                  : "no (see utilities above)");

  // 3. Cluster-wide metrics: counters summed across shards, latency
  //    histograms merged bucket by bucket.
  const service::ServiceMetricsSnapshot m = cluster_service.MergedMetrics();
  std::printf("merged metrics: %lld sessions completed, %lld source-cache "
              "hits, latency p50=%.2fms p99=%.2fms over %llu sessions\n",
              static_cast<long long>(m.sessions_completed),
              static_cast<long long>(m.runtime.source_cache_hits),
              m.latency.Percentile(50.0), m.latency.Percentile(99.0),
              static_cast<unsigned long long>(m.latency.count()));
  return 0;
}
