// Full mediator pipeline on a materialized synthetic domain: the anytime
// answer curve the paper's introduction motivates.
//
// Builds a chain-query integration domain with real (generated) source
// instances, then runs the complete Section 2 pipeline twice:
//   - plans ordered by conditional coverage with Streamer,
//   - plans in arbitrary (enumeration) order,
// executing each sound plan against the sources and printing how fast the
// distinct answers accumulate. Ordering by utility front-loads the answers;
// that is the whole point of plan ordering.
//
// Build & run:  cmake --build build && ./build/examples/mediator_demo

#include <cstdio>
#include <memory>

#include "core/orderer_factory.h"
#include "exec/mediator.h"
#include "exec/synthetic_domain.h"
#include "utility/coverage_model.h"

namespace {

using namespace planorder;

/// An orderer that just enumerates plans in space order — what a mediator
/// without plan ordering would execute.
class ArbitraryOrderer : public core::Orderer {
 public:
  ArbitraryOrderer(const stats::Workload* workload,
                   utility::UtilityModel* model)
      : Orderer(workload, model) {
    const core::PlanSpace space = core::PlanSpace::FullSpace(*workload);
    utility::ConcretePlan plan(space.buckets.size());
    std::vector<size_t> cursor(space.buckets.size(), 0);
    while (true) {
      for (size_t b = 0; b < space.buckets.size(); ++b) {
        plan[b] = space.buckets[b][cursor[b]];
      }
      plans_.push_back(plan);
      size_t b = 0;
      for (; b < space.buckets.size(); ++b) {
        if (++cursor[b] < space.buckets[b].size()) break;
        cursor[b] = 0;
      }
      if (b == space.buckets.size()) break;
    }
  }

  std::string name() const override { return "arbitrary"; }

 protected:
  StatusOr<core::OrderedPlan> ComputeNext() override {
    if (next_ >= plans_.size()) return NotFoundError("exhausted");
    core::OrderedPlan out{plans_[next_], Evaluate(plans_[next_])};
    ++next_;
    return out;
  }

 private:
  std::vector<utility::ConcretePlan> plans_;
  size_t next_ = 0;
};

}  // namespace

int main() {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 6;
  options.overlap_rate = 0.35;
  options.regions_per_bucket = 12;
  options.seed = 7;
  auto domain = exec::BuildSyntheticDomain(options, /*num_answers=*/2000);
  if (!domain.ok()) {
    std::fprintf(stderr, "error: %s\n", domain.status().ToString().c_str());
    return 1;
  }
  const exec::SyntheticDomain& d = **domain;
  std::printf("domain: query %s over %d sources, %zu ground-truth answers\n",
              d.query.ToString().c_str(), d.catalog.num_sources(),
              d.num_answers);

  exec::Mediator mediator(&d.catalog, d.query, d.source_ids);
  const std::unique_ptr<exec::PlanExecutor> executor =
      exec::MakeSetOrientedExecutor(&d.source_facts);
  const int plans_to_run = 24;

  utility::CoverageModel model_a(&d.workload);
  auto streamer =
      core::MakeOrderer({core::OrdererKind::kStreamer}, &d.workload, &model_a,
                        {core::PlanSpace::FullSpace(d.workload)});
  if (!streamer.ok()) {
    std::fprintf(stderr, "error: %s\n", streamer.status().ToString().c_str());
    return 1;
  }
  auto ordered =
      mediator.Run(**streamer, {.max_plans = plans_to_run}, *executor);

  utility::CoverageModel model_b(&d.workload);
  ArbitraryOrderer arbitrary(&d.workload, &model_b);
  auto unordered =
      mediator.Run(arbitrary, {.max_plans = plans_to_run}, *executor);

  if (!ordered.ok() || !unordered.ok()) {
    std::fprintf(stderr, "mediator failed\n");
    return 1;
  }

  std::printf("\nanytime answer curve (distinct answers after n plans):\n");
  std::printf("%6s  %22s  %22s\n", "plan", "coverage-ordered", "arbitrary");
  for (int i = 0; i < plans_to_run; ++i) {
    const size_t a = i < static_cast<int>(ordered->steps.size())
                         ? ordered->steps[i].total_answers
                         : ordered->total_answers;
    const size_t b = i < static_cast<int>(unordered->steps.size())
                         ? unordered->steps[i].total_answers
                         : unordered->total_answers;
    std::printf("%6d  %10zu (%5.1f%%)  %10zu (%5.1f%%)\n", i + 1, a,
                100.0 * a / d.num_answers, b, 100.0 * b / d.num_answers);
  }
  std::printf(
      "\nafter %d of %d plans: ordered mediator has %.1f%%, arbitrary "
      "%.1f%% of all answers\n",
      plans_to_run, 6 * 6 * 6,
      100.0 * ordered->total_answers / d.num_answers,
      100.0 * unordered->total_answers / d.num_answers);
  return 0;
}
