/// Open-loop load harness of the sharded query cluster (src/cluster/): a
/// Poisson arrival process sweeps over arrival rates, each arrival issuing
/// one query class (rotated-head variants, so classes spread across shards)
/// against a ShardedService over the resilient runtime. Open loop means the
/// schedule never waits for completions — arrivals keep coming past
/// saturation, so the harness observes the service's actual overload
/// behavior: admission control sheds (kResourceExhausted) instead of letting
/// latency collapse. Each rate point runs once with the cross-session
/// source-operation cache and once without; cached points show the
/// throughput head-room that zero-latency repeat fetches buy. Reports
/// per-point throughput, shed rate, source-cache hit rate and client-side
/// p50/p99 latency as JSON (BENCH_service_scale.json).
///
/// Usage: bench_service_scale [output.json] [--rates=R1,R2,...]
///        [--duration-ms=D] [--shards=N] [--source-cache=on|off|both]
///        plus the shared bench flags (bench_flags.h).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "bench_flags.h"
#include "cluster/sharded_service.h"
#include "cluster/source_cache.h"
#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "runtime/source_runtime.h"

namespace planorder::bench {
namespace {

constexpr int kQueryClasses = 4;
constexpr int kMaxPlans = 2;
constexpr double kSourceLatencyMs = 2.0;

/// Distinct query classes over one catalog: rotating the head argument
/// order changes the canonical form (unlike variable renaming), so the
/// classes hash to different shards while sharing every source — exactly
/// the regime where the cross-session cache pays across shards.
std::vector<datalog::ConjunctiveQuery> MakeQueryClasses(
    const datalog::ConjunctiveQuery& query, int count) {
  std::vector<datalog::ConjunctiveQuery> classes;
  const size_t arity = query.head.args.size();
  for (int c = 0; c < count; ++c) {
    datalog::ConjunctiveQuery rotated = query;
    if (arity > 1) {
      for (size_t a = 0; a < arity; ++a) {
        rotated.head.args[a] = query.head.args[(a + size_t(c)) % arity];
      }
    }
    classes.push_back(std::move(rotated));
  }
  return classes;
}

struct PointResult {
  double rate_per_s = 0.0;
  bool cache_on = false;
  int arrivals = 0;
  int completed = 0;
  int shed = 0;
  double elapsed_ms = 0.0;
  double throughput_per_s = 0.0;
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  int64_t runtime_cache_hits = 0;
  int64_t queue_depth_peak = 0;
};

double NearestRank(std::vector<double>& sorted_samples, double percentile) {
  if (sorted_samples.empty()) return 0.0;
  const size_t n = sorted_samples.size();
  size_t rank = size_t(std::ceil(percentile / 100.0 * double(n)));
  if (rank < 1) rank = 1;
  return sorted_samples[rank - 1];
}

/// One rate point: replays a precomputed Poisson schedule against a fresh
/// cluster. One thread per arrival (arrivals are bounded by rate * duration;
/// a short-lived thread per request keeps the client truly open-loop — no
/// client-side queue that would soften the offered load).
PointResult RunPoint(const exec::SyntheticDomain& domain,
                     const std::vector<datalog::ConjunctiveQuery>& classes,
                     double rate_per_s, double duration_ms, int num_shards,
                     bool cache_on, uint64_t seed) {
  // Precompute the exponential inter-arrival schedule so the dispatcher does
  // no RNG work on the critical path.
  Rng rng(seed);
  std::vector<double> offsets_ms;
  double t = 0.0;
  const double mean_gap_ms = 1000.0 / rate_per_s;
  while (t < duration_ms) {
    const double u = rng.UniformReal(1e-12, 1.0);
    t += -mean_gap_ms * std::log(u);
    if (t < duration_ms) offsets_ms.push_back(t);
  }

  auto registry =
      exec::BuildSourceRegistry(domain.catalog, domain.source_facts);
  PLANORDER_CHECK(registry.ok()) << registry.status();

  cluster::SourceOperationCache cache;
  runtime::RuntimeOptions ropts;
  ropts.num_threads = int(std::thread::hardware_concurrency());
  if (ropts.num_threads < 2) ropts.num_threads = 2;
  ropts.seed = seed;
  ropts.default_model.base_latency_ms = kSourceLatencyMs;
  if (cache_on) ropts.source_cache = &cache;
  runtime::SourceRuntime runtime(&*registry, ropts);

  cluster::ClusterOptions copts;
  copts.num_shards = num_shards;
  if (cache_on) copts.source_cache = &cache;
  // Saturation point: few slots, no queueing grace — a full shard sheds
  // instantly, which is the overload behavior the sweep measures.
  copts.shard.max_active_sessions = 4;
  copts.shard.max_queued_admissions = 4;
  copts.shard.admission_timeout_ms = 0.0;
  cluster::ShardedService service(&domain.catalog, &domain.source_facts,
                                  copts, &runtime);

  exec::Mediator::RunLimits limits;
  limits.max_plans = kMaxPlans;

  const int arrivals = int(offsets_ms.size());
  std::vector<double> latencies_ms(size_t(arrivals), -1.0);  // -1 = shed
  std::vector<std::thread> requests;
  requests.reserve(size_t(arrivals));
  const double start_ms = NowWallMs();
  for (int i = 0; i < arrivals; ++i) {
    const double wait_ms = start_ms + offsets_ms[size_t(i)] - NowWallMs();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    requests.emplace_back([&service, &classes, &limits, &latencies_ms, i] {
      const auto& query = classes[size_t(i) % classes.size()];
      const double issued_ms = NowWallMs();
      auto result = service.RunQuery(query, limits);
      if (result.ok()) {
        latencies_ms[size_t(i)] = NowWallMs() - issued_ms;
      } else {
        PLANORDER_CHECK(result.status().code() ==
                        StatusCode::kResourceExhausted)
            << result.status();
      }
    });
  }
  for (std::thread& request : requests) request.join();
  const double elapsed_ms = NowWallMs() - start_ms;

  PointResult point;
  point.rate_per_s = rate_per_s;
  point.cache_on = cache_on;
  point.arrivals = arrivals;
  point.elapsed_ms = elapsed_ms;
  std::vector<double> completed_ms;
  for (double latency : latencies_ms) {
    if (latency >= 0.0) {
      completed_ms.push_back(latency);
    } else {
      ++point.shed;
    }
  }
  point.completed = int(completed_ms.size());
  point.throughput_per_s =
      elapsed_ms > 0.0 ? 1000.0 * double(point.completed) / elapsed_ms : 0.0;
  point.shed_rate =
      arrivals > 0 ? double(point.shed) / double(arrivals) : 0.0;
  std::sort(completed_ms.begin(), completed_ms.end());
  point.p50_ms = NearestRank(completed_ms, 50.0);
  point.p99_ms = NearestRank(completed_ms, 99.0);

  const runtime::SourceResultCacheStats cache_stats = cache.stats();
  point.cache_hits = cache_stats.hits;
  point.cache_misses = cache_stats.misses;
  const int64_t lookups = cache_stats.hits + cache_stats.misses;
  point.cache_hit_rate =
      lookups > 0 ? double(cache_stats.hits) / double(lookups) : 0.0;
  const service::ServiceMetricsSnapshot merged = service.MergedMetrics();
  point.runtime_cache_hits = merged.runtime.source_cache_hits;
  point.queue_depth_peak = merged.queue_depth_peak;
  PLANORDER_CHECK(merged.sessions_completed == int64_t(point.completed))
      << "service metrics disagree with the client-side count";
  return point;
}

Json PointJson(const PointResult& p) {
  return Json::Object({{"rate_per_s", p.rate_per_s},
                       {"source_cache", p.cache_on},
                       {"arrivals", p.arrivals},
                       {"completed", p.completed},
                       {"shed", p.shed},
                       {"elapsed_ms", p.elapsed_ms},
                       {"throughput_per_s", p.throughput_per_s},
                       {"shed_rate", p.shed_rate},
                       {"latency_p50_ms", p.p50_ms},
                       {"latency_p99_ms", p.p99_ms},
                       {"cache_hits", p.cache_hits},
                       {"cache_misses", p.cache_misses},
                       {"cache_hit_rate", p.cache_hit_rate},
                       {"runtime_cache_hits", p.runtime_cache_hits},
                       {"queue_depth_peak", p.queue_depth_peak}});
}

int Main(int argc, char** argv) {
  // Harness-specific flags, stripped before the shared parser (which aborts
  // on flags it does not know).
  std::vector<double> rates = {25.0, 50.0, 100.0, 200.0};
  double duration_ms = 1000.0;
  int num_shards = 2;
  std::string cache_mode = "both";  // on | off | both
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rates=", 0) == 0) {
      rates.clear();
      std::istringstream stream(arg.substr(8));
      std::string item;
      while (std::getline(stream, item, ',')) {
        if (!item.empty()) rates.push_back(std::stod(item));
      }
      PLANORDER_CHECK(!rates.empty()) << "empty --rates list";
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      duration_ms = std::stod(arg.substr(14));
      PLANORDER_CHECK(duration_ms > 0.0) << "bad --duration-ms";
    } else if (arg.rfind("--shards=", 0) == 0) {
      num_shards = std::stoi(arg.substr(9));
      PLANORDER_CHECK_GE(num_shards, 1);
    } else if (arg.rfind("--source-cache=", 0) == 0) {
      cache_mode = arg.substr(15);
      PLANORDER_CHECK(cache_mode == "on" || cache_mode == "off" ||
                      cache_mode == "both")
          << "--source-cache wants on|off|both, got '" << cache_mode << "'";
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const BenchFlags flags =
      ParseBenchFlags(int(passthrough.size()), passthrough.data(),
                      "BENCH_service_scale.json");

  stats::WorkloadOptions wopts;
  wopts.query_length = 2;
  wopts.bucket_size = 4;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 8;
  wopts.seed = 17;
  auto domain = exec::BuildSyntheticDomain(wopts, /*num_answers=*/200);
  PLANORDER_CHECK(domain.ok()) << domain.status();
  const exec::SyntheticDomain& d = **domain;
  const std::vector<datalog::ConjunctiveQuery> classes =
      MakeQueryClasses(d.query, kQueryClasses);

  std::vector<PointResult> points;
  for (double rate : rates) {
    for (bool cache_on : {false, true}) {
      if (cache_mode == "on" && !cache_on) continue;
      if (cache_mode == "off" && cache_on) continue;
      PointResult point =
          RunPoint(d, classes, rate, duration_ms, num_shards, cache_on,
                   flags.weights_seed + uint64_t(rate));
      std::cout << "rate " << rate << "/s cache=" << (cache_on ? "on" : "off")
                << ": " << point.completed << "/" << point.arrivals
                << " completed (" << point.throughput_per_s
                << "/s), shed rate " << point.shed_rate << ", hit rate "
                << point.cache_hit_rate << ", p50 " << point.p50_ms
                << " ms, p99 " << point.p99_ms << " ms\n";
      points.push_back(point);
    }
  }

  Json point_list = Json::Array();
  for (const PointResult& point : points) point_list.Push(PointJson(point));
  WriteBenchJson(flags, "service_scale",
                 {{"num_shards", num_shards},
                  {"query_classes", kQueryClasses},
                  {"max_plans", kMaxPlans},
                  {"duration_ms", duration_ms},
                  {"source_latency_ms", kSourceLatencyMs},
                  {"points", point_list}});
  return 0;
}

}  // namespace
}  // namespace planorder::bench

int main(int argc, char** argv) { return planorder::bench::Main(argc, argv); }
