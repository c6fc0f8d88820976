#include "adaptive/adaptive_orderer.h"

#include <utility>

namespace planorder::adaptive {

StatusOr<std::unique_ptr<AdaptiveOrderer>> AdaptiveOrderer::Create(
    const stats::Workload* estimates,
    std::vector<std::vector<std::string>> source_names,
    const ObservedStats* observed, const AdaptiveOptions& options) {
  if (estimates == nullptr) return InvalidArgumentError("null estimates");
  if (int(source_names.size()) != estimates->num_buckets()) {
    return InvalidArgumentError("source_names bucket count mismatch");
  }
  for (int b = 0; b < estimates->num_buckets(); ++b) {
    if (int(source_names[b].size()) != estimates->bucket_size(b)) {
      return InvalidArgumentError("source_names bucket " + std::to_string(b) +
                                  " size mismatch");
    }
  }
  // The base class compiles an ExecutionContext over the estimates before
  // the first inner orderer validates them.
  PLANORDER_RETURN_IF_ERROR(
      core::ValidateSpaces(*estimates, {core::PlanSpace::FullSpace(*estimates)})
          .status());
  // Validates measure applicability up front (MakeMeasure may reject the
  // pair) and gives the base class a model that outlives every rebuild.
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<utility::UtilityModel> estimate_model,
      utility::MakeMeasure(options.measure, estimates));
  std::unique_ptr<AdaptiveOrderer> orderer(
      new AdaptiveOrderer(estimates, std::move(source_names), observed,
                          options, std::move(estimate_model)));
  // Build the first generation eagerly so Create reports inner-orderer
  // applicability failures instead of the first Next().
  PLANORDER_RETURN_IF_ERROR(orderer->Rebuild());
  return orderer;
}

AdaptiveOrderer::AdaptiveOrderer(
    const stats::Workload* estimates,
    std::vector<std::vector<std::string>> source_names,
    const ObservedStats* observed, const AdaptiveOptions& options,
    std::unique_ptr<utility::UtilityModel> estimate_model)
    : core::Orderer(estimates, estimate_model.get()),
      options_(options),
      estimates_(estimates),
      names_(std::move(source_names)),
      observed_(observed),
      estimate_model_(std::move(estimate_model)) {}

void AdaptiveOrderer::ReportDiscarded() {
  core::Orderer::ReportDiscarded();
  if (inner_ != nullptr) inner_->ReportDiscarded();
}

void AdaptiveOrderer::SetExternallyCached(int bucket, int source, bool cached) {
  core::Orderer::SetExternallyCached(bucket, source, cached);
  if (inner_ != nullptr) inner_->SetExternallyCached(bucket, source, cached);
}

bool AdaptiveOrderer::NeedsRebuild() const {
  if (observed_ == nullptr) return false;
  if (observed_->generation() == built_at_generation_) return false;
  return StatsDiverged(*workload_, names_, *observed_, options_.drift);
}

Status AdaptiveOrderer::Rebuild() {
  std::unique_ptr<stats::Workload> blended;
  if (observed_ != nullptr) {
    PLANORDER_ASSIGN_OR_RETURN(stats::Workload w,
                               BlendWorkload(*estimates_, names_, *observed_));
    blended = std::make_unique<stats::Workload>(std::move(w));
  } else {
    blended = std::make_unique<stats::Workload>(*estimates_);
  }
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> model,
                             utility::MakeMeasure(options_.measure,
                                                  blended.get()));
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Orderer> inner,
      core::MakeOrderer({options_.inner}, blended.get(), model.get(),
                        {core::PlanSpace::FullSpace(*blended)}));
  // Replay the conditioning state: the executed prefix first, then the
  // cross-session residency bits, so the fresh inner orderer prices every
  // remaining plan exactly as if it had emitted the prefix itself.
  for (const core::ConcretePlan& plan : context().executed()) {
    PLANORDER_RETURN_IF_ERROR(inner->PreloadExecuted(plan));
  }
  const std::vector<std::vector<char>>& residency =
      context().external_residency();
  for (size_t b = 0; b < residency.size(); ++b) {
    for (size_t i = 0; i < residency[b].size(); ++i) {
      if (residency[b][i]) {
        inner->SetExternallyCached(int(b), int(i), true);
      }
    }
  }
  workload_ = std::move(blended);
  model_ = std::move(model);
  inner_ = std::move(inner);
  inner_evals_counted_ = 0;
  built_at_generation_ = observed_ != nullptr ? observed_->generation() : 0;
  ++builds_;
  return OkStatus();
}

StatusOr<core::OrderedPlan> AdaptiveOrderer::ComputeNext() {
  if (inner_ == nullptr || NeedsRebuild()) {
    PLANORDER_RETURN_IF_ERROR(Rebuild());
  }
  while (true) {
    StatusOr<core::OrderedPlan> next = inner_->Next();
    evaluations_ += inner_->plan_evaluations() - inner_evals_counted_;
    inner_evals_counted_ = inner_->plan_evaluations();
    if (!next.ok()) return next;  // NotFound: spaces exhausted
    if (emitted_.insert(next->plan).second) return *next;
    // A pre-rebuild emission replayed by the fresh inner stream: it must
    // neither re-emit nor condition (executed ones were preloaded already,
    // discarded ones never condition) — exactly ReportDiscarded semantics.
    inner_->ReportDiscarded();
  }
}

}  // namespace planorder::adaptive
