/// fig6-order: ordering episodes at the paper's Figure 6 points, one client.
/// Each op builds a default iDrips orderer over one generated workload and
/// pulls the first k=100 plans — the time-to-first-k measurement of Figure 6,
/// with no reformulation, execution or service around it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.h"
#include "core/idrips.h"
#include "core/plan_space.h"
#include "utility/measures.h"
#include "workload.h"

namespace planbench {
namespace {

using planorder::core::IDripsOptions;
using planorder::core::IDripsOrderer;
using planorder::core::OrderedPlan;
using planorder::core::PlanSpace;
using planorder::utility::MeasureKind;

constexpr int kTopK = 100;
/// Generated workloads per Figure 6 point. Episode cost varies about 2x
/// between instances of one point; many instances keep each seed's mix
/// close to the point's typical cost, and put ten and more distinct
/// instances above the p99 episode.
constexpr int kInstancesPerPoint = 256;
/// Instances per point also checked against the rebuild-mode reference.
constexpr int kReferencePerPoint = 4;

struct Point {
  MeasureKind measure;
  int bucket_size;
};

/// The Figure 6 points: coverage (6.a-c), failure without and with caching
/// (6.d-f, 6.g-i) at bucket size 20, and monetary cost with caching at 16.
constexpr Point kPoints[] = {
    {MeasureKind::kCoverage, 20},
    {MeasureKind::kFailureNoCache, 20},
    {MeasureKind::kFailureCache, 20},
    {MeasureKind::kMonetaryCache, 16},
};

struct Instance {
  MeasureKind measure;
  planorder::stats::Workload workload;
  /// The reference emission sequence and evaluation count of an episode.
  std::vector<OrderedPlan> emissions;
  int64_t evaluations = 0;
};

struct EpisodeOutcome {
  std::vector<OrderedPlan> emissions;
  int64_t evaluations = 0;
};

StatusOr<EpisodeOutcome> RunEpisode(const Instance& instance,
                                    const IDripsOptions& options) {
  auto model =
      planorder::utility::MakeMeasure(instance.measure, &instance.workload);
  if (!model.ok()) return model.status();
  auto orderer = IDripsOrderer::Create(
      &instance.workload, model->get(),
      {PlanSpace::FullSpace(instance.workload)}, options);
  if (!orderer.ok()) return orderer.status();
  EpisodeOutcome outcome;
  for (int i = 0; i < kTopK; ++i) {
    auto next = (*orderer)->Next();
    if (!next.ok()) return next.status();
    outcome.emissions.push_back(std::move(*next));
  }
  outcome.evaluations = (*orderer)->plan_evaluations();
  return outcome;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string PlanText(const OrderedPlan& emission) {
  std::string text = "(";
  for (size_t b = 0; b < emission.plan.size(); ++b) {
    text += (b == 0 ? "" : ",") + std::to_string(emission.plan[b]);
  }
  char utility[40];
  std::snprintf(utility, sizeof utility, ") u=%a", emission.utility);
  return text + utility;
}

class Fig6Order : public Workload {
 public:
  explicit Fig6Order(uint64_t seed) {
    for (size_t p = 0; p < std::size(kPoints); ++p) {
      for (int i = 0; i < kInstancesPerPoint; ++i) {
        planorder::stats::WorkloadOptions options;
        options.query_length = 3;
        options.overlap_rate = 0.3;
        options.regions_per_bucket = 16;
        options.bucket_size = kPoints[p].bucket_size;
        options.failure_min = 0.05;
        options.failure_max = 0.5;
        options.seed = DeriveSeed(seed, p * kInstancesPerPoint + size_t(i));
        auto workload = planorder::stats::Workload::Generate(options);
        PLANORDER_CHECK(workload.ok()) << workload.status();
        instances_.push_back(Instance{kPoints[p].measure,
                                      std::move(*workload), {}, 0});
      }
    }
  }

  int clients() const override { return 1; }
  double tail_percentile() const override { return 99.0; }

  Status Verify() override {
    int64_t evaluations = 0;
    for (size_t n = 0; n < instances_.size(); ++n) {
      Instance& instance = instances_[n];
      // The reference episode every timed episode of the instance must
      // reproduce bit for bit (plans, utility bits, evaluation count) ...
      auto outcome = RunEpisode(instance, IDripsOptions{});
      if (!outcome.ok()) return outcome.status();
      instance.emissions = std::move(outcome->emissions);
      instance.evaluations = outcome->evaluations;
      evaluations += instance.evaluations;
      // ... and, on the first instances of each point, its agreement with
      // the paper-faithful rebuild-mode iDrips (re-run Drips from the forest
      // roots every emission), which costs about 25 episodes.
      if (n % kInstancesPerPoint >= kReferencePerPoint) continue;
      IDripsOptions rebuild;
      rebuild.persistent_frontier = false;
      auto reference = RunEpisode(instance, rebuild);
      if (!reference.ok()) return reference.status();
      PLANORDER_RETURN_IF_ERROR(CompareToReference(instance, *reference, n));
    }
    evals_per_plan_ = double(evaluations) /
                      double(int64_t(instances_.size()) * kTopK);
    return Status();
  }

  Status Op(int client, int64_t n, OpSample* sample) override {
    (void)client;
    // Round-robin over the points, so that every stretch of the run, and
    // the partial last cycle, holds the four points in equal shares.
    const size_t points = std::size(kPoints);
    const size_t step = size_t(n) % instances_.size();
    const Instance& instance =
        instances_[(step % points) * kInstancesPerPoint + step / points];
    Tracer::BeginOp("episode", /*breakdown=*/true);
    const double start_ms = NowMs();
    bool mismatch = false;
    int64_t evaluations = 0;
    {
      int32_t span = Tracer::Push("MakeMeasure", "utility");
      auto model =
          planorder::utility::MakeMeasure(instance.measure, &instance.workload);
      Tracer::Pop(span);
      if (!model.ok()) return model.status();
      span = Tracer::Push("Orderer::Create", "core");
      auto orderer = IDripsOrderer::Create(
          &instance.workload, model->get(),
          {PlanSpace::FullSpace(instance.workload)}, IDripsOptions{});
      Tracer::Pop(span);
      if (!orderer.ok()) return orderer.status();
      for (int i = 0; i < kTopK; ++i) {
        span = Tracer::Push("Orderer::Next", "core");
        auto next = (*orderer)->Next();
        Tracer::Pop(span);
        if (!next.ok()) return next.status();
        if (i == 0) sample->first_ms = NowMs() - start_ms;
        const OrderedPlan& expected = instance.emissions[size_t(i)];
        mismatch |= next->plan != expected.plan ||
                    !SameBits(next->utility, expected.utility);
      }
      evaluations = (*orderer)->plan_evaluations();
    }
    sample->latency_ms = NowMs() - start_ms;
    Tracer::EndOp();
    if (mismatch || evaluations != instance.evaluations) {
      return planorder::InternalError(
          "fig6-order: episode " + std::to_string(n) +
          " diverged from its instance's reference emission sequence");
    }
    traced_evaluations_ += Tracer::Active() ? evaluations : 0;
    return Status();
  }

  void BeginWindow() override { traced_evaluations_ = 0; }

  void LayerMetrics(const Tracer::Summary& trace, int64_t ops,
                    LayerValues* values) override {
    (void)ops;
    CoreLayerMetrics(trace, traced_evaluations_, values);
    (*values)["core.evals_per_plan"] = evals_per_plan_;
  }

 private:
  /// Against the exact reference orderer: the utility sequence agrees to
  /// 1e-9 at every position. Plans are not compared position by position:
  /// an exact utility tie admits either plan, and the choice conditions
  /// every later utility, so valid orders may diverge after a tie (the
  /// criterion of tests/parallel_order_agreement_test.cc).
  static Status CompareToReference(const Instance& instance,
                                   const EpisodeOutcome& reference,
                                   size_t index) {
    const std::string where =
        "fig6-order instance " + std::to_string(index) + " vs rebuild iDrips";
    const std::vector<OrderedPlan>& got = instance.emissions;
    const std::vector<OrderedPlan>& want = reference.emissions;
    if (got.size() != want.size()) {
      return planorder::InternalError(where + ": emission count differs");
    }
    for (size_t i = 0; i < got.size(); ++i) {
      const double tolerance = 1e-9 * std::max(1.0, std::fabs(want[i].utility));
      if (std::fabs(got[i].utility - want[i].utility) > tolerance) {
        return planorder::InternalError(
            where + ": emission " + std::to_string(i) + " is " +
            PlanText(got[i]) + ", expected " + PlanText(want[i]));
      }
    }
    return Status();
  }

  std::vector<Instance> instances_;
  double evals_per_plan_ = 0.0;
  int64_t traced_evaluations_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFig6Order(uint64_t seed) {
  return std::make_unique<Fig6Order>(seed);
}

}  // namespace planbench
