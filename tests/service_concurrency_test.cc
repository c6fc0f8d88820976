/// Concurrency tests of the QueryService: many client sessions multiplexed
/// over ONE shared runtime::SourceRuntime (and its RemoteSources) must
/// produce exactly the answers of serial execution, with per-session runtime
/// accounting that never leaks across sessions. Runs under the TSan CI job.

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "runtime/source_runtime.h"
#include "service/query_service.h"

namespace planorder::service {
namespace {

using exec::MediatorResult;

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats::WorkloadOptions wopts;
    wopts.query_length = 2;
    wopts.bucket_size = 4;
    wopts.overlap_rate = 0.4;
    wopts.regions_per_bucket = 8;
    wopts.seed = 53;
    auto domain = exec::BuildSyntheticDomain(wopts, 150);
    ASSERT_TRUE(domain.ok()) << domain.status();
    domain_ = std::move(*domain);

    auto registry =
        exec::BuildSourceRegistry(domain_->catalog, domain_->source_facts);
    ASSERT_TRUE(registry.ok()) << registry.status();
    registry_ = *std::move(registry);
  }

  runtime::RuntimeOptions RuntimeOpts(double failure_rate) {
    runtime::RuntimeOptions options;
    options.num_threads = 4;
    options.time_dilation = 0.0;  // no real sleeping: fast and TSan-friendly
    options.default_model.transient_failure_rate = failure_rate;
    options.retry.max_attempts = 64;
    options.seed = 99;
    return options;
  }

  exec::Mediator::RunLimits Limits(int max_plans) {
    exec::Mediator::RunLimits limits;
    limits.max_plans = max_plans;
    return limits;
  }

  static void ExpectSameTrace(const MediatorResult& a,
                              const MediatorResult& b) {
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].plan, b.steps[i].plan) << "step " << i;
      EXPECT_EQ(a.steps[i].answers_from_plan, b.steps[i].answers_from_plan)
          << "step " << i;
      EXPECT_EQ(a.steps[i].total_answers, b.steps[i].total_answers)
          << "step " << i;
    }
    EXPECT_EQ(a.total_answers, b.total_answers);
  }

  std::unique_ptr<exec::SyntheticDomain> domain_;
  exec::SourceRegistry registry_;
};

TEST_F(ServiceConcurrencyTest, ConcurrentSessionsMatchSerialExecution) {
  runtime::SourceRuntime runtime(&registry_, RuntimeOpts(0.0));
  ServiceOptions options;
  options.max_active_sessions = 8;
  QueryService service(&domain_->catalog, &domain_->source_facts, options,
                       &runtime);

  // Serial reference through the same service and shared registry.
  auto reference = service.RunQuery(domain_->query, Limits(12));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->total_answers, 0u);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 2;
  std::vector<std::vector<MediatorResult>> results(kThreads);
  std::vector<Status> statuses(kThreads, OkStatus());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        auto result = service.RunQuery(domain_->query, Limits(12));
        if (!result.ok()) {
          statuses[size_t(t)] = result.status();
          return;
        }
        results[size_t(t)].push_back(std::move(*result));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[size_t(t)].ok()) << statuses[size_t(t)];
    ASSERT_EQ(results[size_t(t)].size(), size_t(kRunsPerThread));
    for (const MediatorResult& result : results[size_t(t)]) {
      ExpectSameTrace(*reference, result);
    }
  }

  const ServiceMetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.sessions_completed, 1 + kThreads * kRunsPerThread);
  EXPECT_EQ(metrics.sessions_shed, 0);
  EXPECT_EQ(metrics.active_sessions, 0);
  // The reference run was the one cold miss; the rest hit (concurrent
  // first-round misses can race, so hits is a lower bound).
  EXPECT_GE(metrics.cache.hits, 1);
  EXPECT_EQ(metrics.cache.collisions, 0);
}

TEST_F(ServiceConcurrencyTest, FaultyNetworkStillMatchesAndIsolatesAccounting) {
  // Transient faults + retries over the shared registry: answers are still
  // exactly serial (deterministic content-hashed fault schedule), and each
  // session's accounting reflects only its own calls.
  runtime::SourceRuntime runtime(&registry_, RuntimeOpts(0.3));
  ServiceOptions options;
  options.max_active_sessions = 4;
  QueryService service(&domain_->catalog, &domain_->source_facts, options,
                       &runtime);

  auto reference = service.RunQuery(domain_->query, Limits(10));
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_GT(reference->runtime.transient_failures, 0);

  constexpr int kThreads = 3;
  std::vector<MediatorResult> results(kThreads);
  std::vector<Status> statuses(kThreads, OkStatus());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto result = service.RunQuery(domain_->query, Limits(10));
      if (!result.ok()) {
        statuses[size_t(t)] = result.status();
        return;
      }
      results[size_t(t)] = std::move(*result);
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[size_t(t)].ok()) << statuses[size_t(t)];
    ExpectSameTrace(*reference, results[size_t(t)]);
    // Identical queries make identical source calls, so the plan-local
    // accounting is identical too — regardless of interleaving.
    EXPECT_EQ(results[size_t(t)].runtime.transient_failures,
              reference->runtime.transient_failures);
    EXPECT_EQ(results[size_t(t)].runtime.retries,
              reference->runtime.retries);
  }

  // The service's totals cover ALL sessions' work, each session counted
  // once.
  const exec::RuntimeAccounting total = service.Metrics().runtime;
  EXPECT_EQ(total.transient_failures,
            (1 + kThreads) * reference->runtime.transient_failures);
  EXPECT_EQ(total.retries, (1 + kThreads) * reference->runtime.retries);
  EXPECT_EQ(total.permanent_failures, 0);
  EXPECT_EQ(total.source_cache_hits, 0);
}

TEST_F(ServiceConcurrencyTest, InterleavedStreamsShareTheRegistry) {
  // Two sessions advanced in lockstep from one thread: interleaving their
  // pulls over the shared registry must not perturb either stream.
  runtime::SourceRuntime runtime(&registry_, RuntimeOpts(0.0));
  ServiceOptions options;
  QueryService service(&domain_->catalog, &domain_->source_facts, options,
                       &runtime);
  auto reference = service.RunQuery(domain_->query, Limits(12));
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto a = service.OpenSession(domain_->query, Limits(12));
  auto b = service.OpenSession(domain_->query, Limits(12));
  ASSERT_TRUE(a.ok() && b.ok());
  bool a_done = false;
  bool b_done = false;
  while (!a_done || !b_done) {
    if (!a_done && !(*a)->NextStep().ok()) a_done = true;
    if (!b_done && !(*b)->NextStep().ok()) b_done = true;
  }
  const MediatorResult result_a = (*a)->Finish();
  const MediatorResult result_b = (*b)->Finish();
  ExpectSameTrace(*reference, result_a);
  ExpectSameTrace(*reference, result_b);
}

}  // namespace
}  // namespace planorder::service
