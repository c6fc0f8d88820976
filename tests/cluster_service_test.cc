// Tests of the sharded query service (src/cluster/): canonical routing,
// shard-aware metrics aggregation, and the cross-session utility shift — a
// warm source-operation cache changing a fresh session's plan utilities.

#include "cluster/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/plan_store.h"

#include "cluster/source_cache.h"
#include "datalog/unify.h"
#include "exec/synthetic_domain.h"
#include "gtest/gtest.h"
#include "runtime/source_runtime.h"
#include "service/shared_view.h"
#include "utility/measures.h"

namespace planorder::cluster {
namespace {

struct Domain {
  std::unique_ptr<exec::SyntheticDomain> synthetic;
  exec::SourceRegistry registry;
};

Domain MakeDomain(uint64_t seed = 29) {
  stats::WorkloadOptions wopts;
  wopts.query_length = 2;
  wopts.bucket_size = 3;
  wopts.overlap_rate = 0.5;
  wopts.regions_per_bucket = 8;
  wopts.seed = seed;
  auto built = exec::BuildSyntheticDomain(wopts, /*num_answers=*/120);
  EXPECT_TRUE(built.ok()) << built.status();
  Domain domain;
  domain.synthetic = std::move(*built);
  auto registry = exec::BuildSourceRegistry(domain.synthetic->catalog,
                                            domain.synthetic->source_facts);
  EXPECT_TRUE(registry.ok()) << registry.status();
  if (registry.ok()) domain.registry = *std::move(registry);
  return domain;
}

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

exec::Mediator::RunLimits FullDrain(const exec::SyntheticDomain& d) {
  exec::Mediator::RunLimits limits;
  int num_plans = 1;
  for (int b = 0; b < d.workload.num_buckets(); ++b) {
    num_plans *= d.workload.bucket_size(b);
  }
  limits.max_plans = num_plans;
  return limits;
}

TEST(ShardedServiceTest, IsomorphicQueriesRouteToOneShard) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  ClusterOptions options;
  options.num_shards = 4;
  ShardedService service(&d.catalog, &d.source_facts, options);
  ASSERT_EQ(service.num_shards(), 4);

  const int home = service.ShardFor(d.query);
  EXPECT_GE(home, 0);
  EXPECT_LT(home, 4);
  // Variable renaming never changes the canonical form, so never the shard.
  EXPECT_EQ(service.ShardFor(RenameVariables(d.query, "_x")), home);
  EXPECT_EQ(service.ShardFor(RenameVariables(d.query, "_yz")), home);
}

TEST(ShardedServiceTest, SessionsLandOnTheHomeShardOnly) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  ClusterOptions options;
  options.num_shards = 3;
  ShardedService service(&d.catalog, &d.source_facts, options);
  const int home = service.ShardFor(d.query);

  exec::Mediator::RunLimits limits;
  limits.max_plans = 1;
  for (int i = 0; i < 3; ++i) {
    auto result = service.RunQuery(RenameVariables(d.query, "_v"), limits);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  const std::vector<service::ServiceMetricsSnapshot> per_shard =
      service.PerShardMetrics();
  ASSERT_EQ(int(per_shard.size()), 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(per_shard[size_t(s)].sessions_completed, s == home ? 3 : 0)
        << "shard " << s;
  }
}

TEST(ShardedServiceTest, MergedMetricsPoolCountersAndLatencySamples) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  ClusterOptions options;
  options.num_shards = 2;
  ShardedService service(&d.catalog, &d.source_facts, options);

  // The base query and its head-rotated variant are distinct canonical
  // classes; with luck they spread over both shards, but the aggregation
  // invariants below hold either way.
  datalog::ConjunctiveQuery rotated = d.query;
  if (rotated.head.args.size() > 1) {
    std::rotate(rotated.head.args.begin(), rotated.head.args.begin() + 1,
                rotated.head.args.end());
  }
  exec::Mediator::RunLimits limits;
  limits.max_plans = 1;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service.RunQuery(d.query, limits).ok());
    ASSERT_TRUE(service.RunQuery(rotated, limits).ok());
  }

  const std::vector<service::ServiceMetricsSnapshot> per_shard =
      service.PerShardMetrics();
  const service::ServiceMetricsSnapshot merged = service.MergedMetrics();
  int64_t completed = 0;
  uint64_t latency_count = 0;
  double latency_max = 0.0;
  service::LatencyHistogram latency;
  for (const auto& m : per_shard) {
    completed += m.sessions_completed;
    latency_count += m.latency.count();
    if (m.latency.max_ms() > latency_max) latency_max = m.latency.max_ms();
    latency.Merge(m.latency);
  }
  EXPECT_EQ(merged.sessions_completed, completed);
  EXPECT_EQ(merged.sessions_completed, 4);
  // The shards' histograms merged bucket by bucket, not their percentiles
  // averaged.
  EXPECT_EQ(merged.latency, latency);
  EXPECT_EQ(merged.latency.count(), latency_count);
  EXPECT_EQ(merged.latency.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.latency.max_ms(), latency_max);
  EXPECT_LE(merged.latency.Percentile(50.0), merged.latency.Percentile(99.0));
  EXPECT_LE(merged.latency.Percentile(99.0), merged.latency.max_ms());
}

/// MergedMetrics() reads every shard while sessions finish on other threads.
/// Each shard records a session's completion and its latency under one lock,
/// so every merged snapshot counts them alike, the count never falls, and it
/// ends at the number of sessions run.
TEST(ShardedServiceTest, MergedMetricsWhileSessionsFinish) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  ClusterOptions options;
  options.num_shards = 2;
  ShardedService service(&d.catalog, &d.source_facts, options);

  datalog::ConjunctiveQuery rotated = d.query;
  if (rotated.head.args.size() > 1) {
    std::rotate(rotated.head.args.begin(), rotated.head.args.begin() + 1,
                rotated.head.args.end());
  }
  constexpr int kClients = 4;
  constexpr int kSessionsPerClient = 8;
  exec::Mediator::RunLimits limits;
  limits.max_plans = 1;
  std::atomic<int> failures{0};
  std::atomic<int> running{kClients};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kSessionsPerClient; ++i) {
        const datalog::ConjunctiveQuery& query =
            (c + i) % 2 == 0 ? d.query : rotated;
        if (!service.RunQuery(query, limits).ok()) ++failures;
      }
      --running;
    });
  }
  uint64_t last = 0;
  while (running.load() > 0) {
    const service::ServiceMetricsSnapshot m = service.MergedMetrics();
    EXPECT_EQ(m.latency.count(), uint64_t(m.sessions_completed));
    EXPECT_GE(m.latency.count(), last);
    last = m.latency.count();
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  const service::ServiceMetricsSnapshot merged = service.MergedMetrics();
  EXPECT_EQ(merged.sessions_completed, kClients * kSessionsPerClient);
  EXPECT_EQ(merged.latency.count(), uint64_t(kClients * kSessionsPerClient));
}

/// The tentpole semantics: a fresh session against a warm cross-session
/// cache must (a) fetch through the cache (runtime hits > 0) and (b) order
/// under *different* utilities than the cold run — the Section 6 caching
/// measure charges resident operations zero residual cost.
TEST(ShardedServiceTest, WarmCacheShiftsSecondSessionUtilities) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;

  SourceOperationCache cache;
  runtime::RuntimeOptions ropts;
  ropts.num_threads = 2;
  ropts.time_dilation = 0.0;
  ropts.source_cache = &cache;
  runtime::SourceRuntime runtime(&domain.registry, ropts);

  ClusterOptions options;
  options.num_shards = 2;
  options.source_cache = &cache;
  options.shard.measure = utility::MeasureKind::kFailureCache;
  ShardedService service(&d.catalog, &d.source_facts, options, &runtime);
  const exec::Mediator::RunLimits limits = FullDrain(d);

  auto drain = [&service, &d, &limits]() {
    std::vector<exec::MediatorStep> steps;
    auto session = service.OpenSession(d.query, limits);
    EXPECT_TRUE(session.ok()) << session.status();
    while (true) {
      auto step = (*session)->NextStep();
      if (!step.ok()) break;
      steps.push_back(*step);
    }
    (*session)->Finish();
    return steps;
  };

  const std::vector<exec::MediatorStep> cold = drain();
  ASSERT_FALSE(cold.empty());
  // Distinct plans of ONE session already reuse operations (intra-session
  // hits); what the cluster layer adds is the cross-session delta below.
  const int64_t cold_hits = cache.stats().hits;
  ASSERT_GT(cache.stats().resident_entries, 0);

  const std::vector<exec::MediatorStep> warm = drain();
  ASSERT_EQ(warm.size(), cold.size());
  // (a) The warm session's fetches were served by the shared cache.
  EXPECT_GT(cache.stats().hits, cold_hits);
  EXPECT_GT(service.MergedMetrics().runtime.source_cache_hits, 0);
  // (b) At least the first emission's utility reflects the residency: with
  // every source of the space resident, the failure/cache measure sees a
  // different (cheaper) world than the cold run did.
  bool utilities_differ = false;
  for (size_t i = 0; i < cold.size(); ++i) {
    if (cold[i].plan != warm[i].plan ||
        cold[i].estimated_utility != warm[i].estimated_utility) {
      utilities_differ = true;
      break;
    }
  }
  EXPECT_TRUE(utilities_differ)
      << "a fully warm cache left every utility untouched";
  // Answers are unaffected: cached rows equal fetched rows.
  size_t cold_answers = cold.back().total_answers;
  size_t warm_answers = warm.back().total_answers;
  EXPECT_EQ(cold_answers, warm_answers);
}

/// A residency view frozen at each source name's first poll — the stale
/// view the sim plants to inject its stale-utility bug. Polled from one
/// thread here, so it needs no lock.
class FrozenView : public service::SharedOperationView {
 public:
  explicit FrozenView(const SourceOperationCache* cache) : cache_(cache) {}

  bool IsResident(const std::string& source_name) const override {
    auto [it, first_poll] = first_answer_.try_emplace(source_name, false);
    if (first_poll) it->second = cache_->IsResident(source_name);
    return it->second;
  }

 private:
  const SourceOperationCache* cache_;
  mutable std::map<std::string, bool> first_answer_;
};

/// The sim's injected bug from outside the service: a session that polls a
/// view frozen at open time reproduces the cold utilities exactly on a warm
/// cache — stale, since the cache is resident. This pins what the frozen
/// view does to a session (and with it the property's ability to catch the
/// bug).
TEST(ShardedServiceTest, DisabledRefreshReproducesStaleUtilities) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;

  auto run_second_session = [&domain, &d](bool frozen) {
    SourceOperationCache cache;
    FrozenView frozen_view(&cache);
    runtime::RuntimeOptions ropts;
    ropts.num_threads = 2;
    ropts.time_dilation = 0.0;
    ropts.source_cache = &cache;
    runtime::SourceRuntime runtime(&domain.registry, ropts);
    ClusterOptions options;
    options.num_shards = 1;
    if (frozen) {
      options.shard.source_cache_view = &frozen_view;
    } else {
      options.source_cache = &cache;
    }
    options.shard.measure = utility::MeasureKind::kFailureCache;
    ShardedService service(&d.catalog, &d.source_facts, options, &runtime);
    const exec::Mediator::RunLimits limits = FullDrain(d);
    // Open BOTH sessions before any execution, so the second session's
    // open-time snapshot is empty — only the per-step refresh can tell it
    // about the residency the first session's drain creates.
    auto first = service.OpenSession(d.query, limits);
    auto second = service.OpenSession(d.query, limits);
    EXPECT_TRUE(first.ok() && second.ok());
    while ((*first)->NextStep().ok()) {
    }
    (*first)->Finish();
    std::vector<double> second_utilities;
    while (true) {
      auto step = (*second)->NextStep();
      if (!step.ok()) break;
      second_utilities.push_back(step->estimated_utility);
    }
    (*second)->Finish();
    return second_utilities;
  };

  // Both sessions open before any execution, so the open-time snapshot is
  // empty: a second session on the frozen view orders exactly like a cold
  // one.
  const std::vector<double> fresh = run_second_session(false);
  const std::vector<double> stale = run_second_session(true);
  ASSERT_EQ(fresh.size(), stale.size());
  EXPECT_NE(fresh, stale)
      << "live and frozen views made no difference; the stale view is dead";
}

TEST(ShardedServiceTest, PerShardPlanStoresPersistAndWarmLoad) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  const std::string dir = "cluster_service_test_stores";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  exec::Mediator::RunLimits limits;
  limits.max_plans = 2;

  ClusterOptions options;
  options.num_shards = 2;
  options.plan_store_dir = dir;
  {
    ShardedService service(&d.catalog, &d.source_facts, options);
    ASSERT_TRUE(service.RunQuery(d.query, limits).ok());
    ASSERT_TRUE(service.PersistAll().ok());
    // Deterministic routing puts the entry in the home shard's file.
    adaptive::PlanStore home(
        dir + "/shard_" + std::to_string(service.ShardFor(d.query)) +
        ".planstore");
    auto contents = home.Load();
    ASSERT_TRUE(contents.ok()) << contents.status();
    EXPECT_EQ(contents->entries.size(), 1u);
  }

  // Cluster restart over the same directory: the home shard warm-loads the
  // reformulation and serves the query as a cache hit.
  ShardedService warm(&d.catalog, &d.source_facts, options);
  EXPECT_GE(warm.MergedMetrics().plan_store_entries_loaded, 1);
  EXPECT_EQ(warm.MergedMetrics().plan_store_load_failures, 0);
  ASSERT_TRUE(warm.RunQuery(d.query, limits).ok());
  EXPECT_EQ(warm.MergedMetrics().cache.hits, 1);
  EXPECT_EQ(warm.MergedMetrics().cache.misses, 0);
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, PersistAllWithoutStoresIsAPreconditionError) {
  Domain domain = MakeDomain();
  const exec::SyntheticDomain& d = *domain.synthetic;
  ClusterOptions options;
  options.num_shards = 2;
  ShardedService service(&d.catalog, &d.source_facts, options);
  EXPECT_EQ(service.PersistAll().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace planorder::cluster
