#ifndef PLANORDER_BENCH_KERNEL_PLANS_H_
#define PLANORDER_BENCH_KERNEL_PLANS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_counter.h"
#include "base/logging.h"
#include "bench_flags.h"
#include "datalog/conjunctive_query.h"
#include "exec/dependent_join.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "reformulation/executable_order.h"

namespace planorder::bench {

/// The fixed plan set the dependent-join kernel's work is counted over:
/// the first `kPlans` usable plans, in plan-space index order, of
/// service-hot's domain shape (chain of 3, 16 sources per bucket, overlap
/// 0.4, 16 regions, domain seed 17, 400 answers), each in executable atom
/// order, over a plain SourceRegistry.
struct KernelPlanSet {
  static constexpr int kPlans = 256;

  std::unique_ptr<exec::SyntheticDomain> domain;
  exec::SourceRegistry registry;
  std::vector<datalog::ConjunctiveQuery> rewritings;
};

inline std::unique_ptr<KernelPlanSet> BuildKernelPlanSet() {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 16;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 16;
  options.seed = 17;
  auto set = std::make_unique<KernelPlanSet>();
  auto domain = exec::BuildSyntheticDomain(options, /*num_answers=*/400);
  PLANORDER_CHECK(domain.ok()) << domain.status();
  set->domain = std::move(*domain);
  auto registry =
      exec::BuildSourceRegistry(set->domain->catalog, set->domain->source_facts);
  PLANORDER_CHECK(registry.ok()) << registry.status();
  set->registry = std::move(*registry);
  const exec::SyntheticDomain& d = *set->domain;
  std::vector<int> plan(size_t(options.query_length), 0);
  while (set->rewritings.size() < size_t(KernelPlanSet::kPlans)) {
    auto resolved =
        reformulation::ResolvePlan(d.query, d.catalog, d.source_ids, plan);
    PLANORDER_CHECK(resolved.ok()) << resolved.status();
    if (resolved->verdict == reformulation::PlanVerdict::kUsable) {
      set->rewritings.push_back(resolved->plan.rewriting);
    }
    // Next plan in index order, the last bucket varying fastest.
    size_t b = plan.size();
    while (b > 0 && plan[b - 1] == options.bucket_size - 1) plan[--b] = 0;
    PLANORDER_CHECK(b > 0) << "plan space holds fewer than kPlans usable plans";
    ++plan[b - 1];
  }
  return set;
}

/// Heap work and time of one pass of the kernel over the plan set.
struct KernelWork {
  int64_t plans = 0;
  /// Totals over the pass: exact and repeatable.
  int64_t allocations = 0;
  int64_t bytes = 0;
  /// Median over the timed passes; wall clock, so noisy.
  double us_per_plan = 0.0;

  double allocations_per_plan() const { return double(allocations) / double(plans); }
  double bytes_per_plan() const { return double(bytes) / double(plans); }
};

/// Runs the kernel once over every plan to build the sources' lazy indexes,
/// then counts the allocations of one pass and times `timed_passes` more.
/// Answers and traces are dropped inside the pass, so their frees are too.
inline KernelWork MeasureKernel(KernelPlanSet& set, int timed_passes) {
  auto pass = [&set] {
    for (const datalog::ConjunctiveQuery& rewriting : set.rewritings) {
      exec::ExecutionTrace trace;
      auto answers = exec::ExecutePlanDependent(rewriting, set.registry, &trace);
      PLANORDER_CHECK(answers.ok()) << answers.status();
    }
  };
  pass();
  const AllocationCount before = AllocationsSoFar();
  pass();
  const AllocationCount after = AllocationsSoFar();
  KernelWork work;
  work.plans = int64_t(set.rewritings.size());
  work.allocations = after.allocations - before.allocations;
  work.bytes = after.bytes - before.bytes;
  std::vector<double> us;
  us.reserve(size_t(std::max(timed_passes, 0)));
  for (int i = 0; i < timed_passes; ++i) {
    const double start_ms = NowWallMs();
    pass();
    us.push_back((NowWallMs() - start_ms) * 1000.0 / double(work.plans));
  }
  if (!us.empty()) {
    std::sort(us.begin(), us.end());
    work.us_per_plan = us[us.size() / 2];
  }
  return work;
}

}  // namespace planorder::bench

#endif  // PLANORDER_BENCH_KERNEL_PLANS_H_
