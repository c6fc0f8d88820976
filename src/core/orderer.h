#ifndef PLANORDER_CORE_ORDERER_H_
#define PLANORDER_CORE_ORDERER_H_

#include <optional>
#include <string>

#include "base/status.h"
#include "core/plan_space.h"
#include "utility/model.h"

namespace planorder::core {

/// One emission of a plan orderer.
struct OrderedPlan {
  ConcretePlan plan;
  /// The plan's utility conditioned on everything executed before it.
  double utility = 0.0;
};

/// The common interface of the plan-ordering algorithms (Definition 2.1):
/// repeated calls to Next() yield the plans of the input plan spaces in
/// exact decreasing order of conditional utility.
///
/// Conditioning protocol: by default an emitted plan is assumed executed
/// before the following Next() call, per the problem definition. A mediator
/// that finds an emitted plan unsound (Section 2's strategy: order the whole
/// Cartesian product, test soundness afterwards) must call ReportDiscarded()
/// before the next Next(), so the discarded plan does not condition
/// subsequent utilities.
class Orderer {
 public:
  virtual ~Orderer() = default;

  Orderer(const Orderer&) = delete;
  Orderer& operator=(const Orderer&) = delete;

  virtual std::string name() const = 0;

  /// Emits the next best plan, or NotFound when the spaces are exhausted.
  StatusOr<OrderedPlan> Next();

  /// Declares the previously emitted plan discarded (not executed). Virtual
  /// so delegating orderers (adaptive re-ranking, src/adaptive/) can forward
  /// the discard to an inner orderer.
  virtual void ReportDiscarded() { pending_.reset(); }

  /// Conditions this orderer on a plan that was executed before it was
  /// built — the re-rank / warm-restart entry point (src/adaptive/): the
  /// plan covers its coverage box, marks its operations cached and
  /// conditions every subsequent utility exactly as a live emission would
  /// have. Must be called before the first Next(); the plan stays a member
  /// of the plan spaces, so callers replacing an orderer mid-stream must
  /// filter the preloaded plans out of the new emission stream themselves.
  Status PreloadExecuted(const ConcretePlan& plan) {
    if (started_ || pending_.has_value()) {
      return FailedPreconditionError(
          "PreloadExecuted must precede the first Next()");
    }
    ctx_.MarkExecuted(plan);
    OnExecuted(plan);
    return OkStatus();
  }

  /// Number of utility evaluations performed so far (concrete + abstract) —
  /// the paper's plan-evaluation metric.
  int64_t plan_evaluations() const { return evaluations_; }

  const utility::ExecutionContext& context() const { return ctx_; }

  /// Declares the (bucket, source) operation resident (or evicted) in a
  /// cross-session result cache (src/cluster/). Cached operations are charged
  /// zero residual cost by the Section 6 caching measures, so flipping a bit
  /// here changes the conditional utilities of every not-yet-emitted plan;
  /// incremental orderers detect the change through the context's external
  /// generation counter and re-evaluate stale frontier entries.
  virtual void SetExternallyCached(int bucket, int source, bool cached) {
    ctx_.SetExternallyCached(bucket, source, cached);
  }

 protected:
  Orderer(const stats::Workload* workload, utility::UtilityModel* model)
      : ctx_(workload), model_(model) {}

  /// Computes (and internally removes) the next best plan given ctx_.
  virtual StatusOr<OrderedPlan> ComputeNext() = 0;

  /// Algorithm-specific bookkeeping after `plan` is committed as executed
  /// (Streamer's link revalidation, PI's dirty marking). The context has
  /// already recorded the execution.
  virtual void OnExecuted(const ConcretePlan& plan) { (void)plan; }

  utility::ExecutionContext& ctx() { return ctx_; }
  utility::UtilityModel& model() { return *model_; }
  const utility::UtilityModel& model() const { return *model_; }

  /// Evaluates a concrete plan, counting the evaluation.
  double Evaluate(const ConcretePlan& plan) {
    ++evaluations_;
    return model_->EvaluateConcrete(plan, ctx_);
  }

  int64_t evaluations_ = 0;

 private:
  utility::ExecutionContext ctx_;
  utility::UtilityModel* model_;
  std::optional<ConcretePlan> pending_;
  bool started_ = false;
};

inline StatusOr<OrderedPlan> Orderer::Next() {
  started_ = true;
  if (pending_.has_value()) {
    ctx_.MarkExecuted(*pending_);
    OnExecuted(*pending_);
    pending_.reset();
  }
  PLANORDER_ASSIGN_OR_RETURN(OrderedPlan next, ComputeNext());
  pending_ = next.plan;
  return next;
}

}  // namespace planorder::core

#endif  // PLANORDER_CORE_ORDERER_H_
