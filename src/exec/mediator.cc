#include "exec/mediator.h"

#include <utility>

#include "exec/dependent_join.h"
#include "reformulation/executable_order.h"

namespace planorder::exec {

namespace {

/// Set-oriented evaluation against the source-facts database — the original
/// execution path, with no per-source accounting.
class SetOrientedExecutor : public PlanExecutor {
 public:
  explicit SetOrientedExecutor(const datalog::Database* facts)
      : facts_(facts) {}

  StatusOr<PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) override {
    PlanExecution exec;
    PLANORDER_ASSIGN_OR_RETURN(exec.tuples,
                               datalog::EvaluateQuery(rewriting, *facts_));
    return exec;
  }

 private:
  const datalog::Database* facts_;
};

/// Serial dependent joins against the registry's sources; a plan's calls
/// and shipped tuples come from its own execution trace.
class DependentJoinExecutor : public PlanExecutor {
 public:
  explicit DependentJoinExecutor(SourceRegistry* sources)
      : sources_(sources) {}

  StatusOr<PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) override {
    PlanExecution exec;
    ExecutionTrace trace;
    PLANORDER_ASSIGN_OR_RETURN(
        exec.tuples, ExecutePlanDependent(rewriting, *sources_, &trace));
    exec.source_calls = trace.TotalCalls();
    exec.tuples_shipped = trace.TotalTuplesShipped();
    return exec;
  }

 private:
  SourceRegistry* sources_;
};

}  // namespace

std::unique_ptr<PlanExecutor> MakeSetOrientedExecutor(
    const datalog::Database* facts) {
  return std::make_unique<SetOrientedExecutor>(facts);
}

std::unique_ptr<PlanExecutor> MakeDependentJoinExecutor(
    SourceRegistry* sources) {
  return std::make_unique<DependentJoinExecutor>(sources);
}

StatusOr<MediatorResult> Mediator::Run(core::Orderer& orderer,
                                       const RunLimits& limits,
                                       PlanExecutor& executor) {
  PLANORDER_ASSIGN_OR_RETURN(MediatorStream stream,
                             OpenStream(orderer, limits, executor));
  while (true) {
    auto step = stream.NextStep();
    if (!step.ok()) {
      if (step.status().code() == StatusCode::kNotFound) break;
      return step.status();
    }
  }
  return stream.TakeResult();
}

StatusOr<MediatorStream> Mediator::OpenStream(core::Orderer& orderer,
                                              const RunLimits& limits,
                                              PlanExecutor& executor) const {
  if (limits.max_plans <= 0) {
    return InvalidArgumentError("max_plans must be positive");
  }
  return MediatorStream(this, &orderer, limits, &executor);
}

StatusOr<MediatorStep> MediatorStream::NextStep() {
  if (done_) {
    return NotFoundError("mediation stream is over");
  }
  if (plans_emitted_ >= limits_.max_plans) {
    done_ = true;
    return NotFoundError("plan limit reached");
  }
  auto next = orderer_->Next();
  if (!next.ok()) {
    done_ = true;
    if (next.status().code() == StatusCode::kNotFound) {
      return NotFoundError("orderer exhausted");
    }
    return next.status();
  }
  MediatorStep step;
  step.plan = next->plan;
  step.estimated_utility = next->utility;

  auto resolved =
      reformulation::ResolvePlan(mediator_->query_, *mediator_->catalog_,
                                 mediator_->source_ids_, step.plan);
  if (!resolved.ok()) {
    done_ = true;
    return resolved.status();
  }
  step.sound = resolved->verdict != reformulation::PlanVerdict::kUnsound;
  step.executable =
      resolved->verdict != reformulation::PlanVerdict::kNotExecutable;
  if (step.sound) ++result_.sound_plans;
  if (resolved->verdict != reformulation::PlanVerdict::kUsable) {
    orderer_->ReportDiscarded();
  } else {
    auto exec = executor_->ExecutePlan(resolved->plan.rewriting);
    if (!exec.ok()) {
      done_ = true;
      return exec.status();
    }
    result_.source_calls += exec->source_calls;
    result_.tuples_shipped += exec->tuples_shipped;
    result_.runtime.Merge(exec->runtime);
    if (exec->failed) {
      // A dead source takes this plan out, not the run: report it to the
      // orderer as a discard so it stops conditioning later utilities.
      step.failed = true;
      step.failure_reason = std::move(exec->failure_reason);
      ++result_.failed_plans;
      orderer_->ReportDiscarded();
    } else {
      step.answers_from_plan = exec->tuples.size();
      for (std::vector<datalog::Term>& tuple : exec->tuples) {
        if (answers_.insert(std::move(tuple)).second) ++step.new_answers;
      }
    }
  }
  step.total_answers = answers_.size();
  ++plans_emitted_;
  result_.steps.push_back(step);
  result_.total_answers = answers_.size();
  return step;
}

MediatorResult MediatorStream::TakeResult() {
  done_ = true;
  result_.total_answers = answers_.size();
  return std::move(result_);
}

}  // namespace planorder::exec
