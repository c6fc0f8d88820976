#ifndef PLANORDER_EXEC_MEDIATOR_H_
#define PLANORDER_EXEC_MEDIATOR_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "core/orderer.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "exec/source_access.h"

namespace planorder::exec {

/// One pipeline step of the mediator: a plan emitted by the orderer.
struct MediatorStep {
  utility::ConcretePlan plan;   // bucket-index form
  double estimated_utility = 0.0;
  bool sound = false;
  /// False when the plan is sound but admits no executable atom order under
  /// the sources' access patterns (it is then discarded like an unsound
  /// plan).
  bool executable = true;
  /// True when the executor reported the plan lost to source failure
  /// (permanent outage, retries exhausted). The plan is discarded like an
  /// unsound one — graceful degradation, not an error.
  bool failed = false;
  std::string failure_reason;
  size_t answers_from_plan = 0;  // answers the plan returned (sound plans)
  size_t new_answers = 0;        // of which previously unseen
  size_t total_answers = 0;      // cumulative distinct answers so far
};

/// Aggregate accounting of the resilient runtime: simulated network latency,
/// retries, injected faults and hedges across all source calls of a run.
/// Zero on the serial execution paths.
struct RuntimeAccounting {
  int64_t retries = 0;             // re-attempts after transient failures
  int64_t transient_failures = 0;  // injected per-attempt failures
  int64_t permanent_failures = 0;  // calls against a permanently dead source
  int64_t hedged_calls = 0;        // backup calls issued past the hedge delay
  int64_t source_cache_hits = 0;   // fetches served by a shared result cache
  double latency_ms_total = 0.0;   // summed simulated latency across calls
  double latency_ms_max = 0.0;     // slowest single call

  void Merge(const RuntimeAccounting& other) {
    retries += other.retries;
    transient_failures += other.transient_failures;
    permanent_failures += other.permanent_failures;
    hedged_calls += other.hedged_calls;
    source_cache_hits += other.source_cache_hits;
    latency_ms_total += other.latency_ms_total;
    if (other.latency_ms_max > latency_ms_max) {
      latency_ms_max = other.latency_ms_max;
    }
  }
};

struct MediatorResult {
  std::vector<MediatorStep> steps;
  size_t total_answers = 0;
  size_t sound_plans = 0;
  /// Plans that were sound and executable but lost to source failure.
  size_t failed_plans = 0;
  /// Populated by the access-pattern execution paths: total source calls and
  /// shipped tuples across all executed plans.
  int64_t source_calls = 0;
  int64_t tuples_shipped = 0;
  /// Populated by the resilient runtime path (see src/runtime/).
  RuntimeAccounting runtime;
};

/// The outcome of executing one sound, executable plan.
struct PlanExecution {
  std::vector<std::vector<datalog::Term>> tuples;
  int64_t source_calls = 0;
  int64_t tuples_shipped = 0;
  RuntimeAccounting runtime;
  /// The plan did not complete because its sources failed (after retries).
  /// The mediator discards it like an unsound plan so the run keeps going —
  /// the Figure 6 failure-model behavior.
  bool failed = false;
  std::string failure_reason;
};

/// Strategy interface for running one rewriting against the sources. The
/// mediator stays agnostic of *how* plans execute: set-oriented evaluation,
/// serial dependent joins, or the concurrent resilient runtime
/// (runtime::SourceRuntime) all plug in here. Execution failures that should
/// degrade gracefully are reported via PlanExecution::failed; a non-OK status
/// aborts the whole run.
class PlanExecutor {
 public:
  virtual ~PlanExecutor() = default;
  virtual StatusOr<PlanExecution> ExecutePlan(
      const datalog::ConjunctiveQuery& rewriting) = 0;
};

/// Set-oriented evaluation of each rewriting against a source-facts database
/// (the original execution path, no per-source accounting). `facts` must
/// outlive the executor. Stateless, hence safe to share across concurrent
/// mediation runs.
std::unique_ptr<PlanExecutor> MakeSetOrientedExecutor(
    const datalog::Database* facts);

/// Serial dependent joins (exec::ExecutePlanDependent) against the
/// binding-pattern sources, one call per batch; each PlanExecution carries
/// its plan's calls and shipped tuples. Every body predicate must be
/// registered; `sources` must outlive the executor. Not safe for concurrent
/// runs (sources build their indexes lazily, without locking): concurrent
/// sessions go through runtime::SourceRuntime.
std::unique_ptr<PlanExecutor> MakeDependentJoinExecutor(
    SourceRegistry* sources);

class MediatorStream;

/// The full pipeline of Section 2: pull plans from an ordering algorithm in
/// decreasing-utility order, build the rewriting and test soundness, discard
/// unsound plans (reporting the discard to the orderer so they do not
/// condition later utilities), execute sound plans with a PlanExecutor, and
/// accumulate the union of their answers.
class Mediator {
 public:
  /// `source_ids[b][i]` is the catalog SourceId behind workload bucket b,
  /// index i (the orderer speaks bucket-index; the catalog speaks SourceId).
  /// The catalog must outlive the mediator.
  Mediator(const datalog::Catalog* catalog, datalog::ConjunctiveQuery query,
           std::vector<std::vector<datalog::SourceId>> source_ids)
      : catalog_(catalog),
        query_(std::move(query)),
        source_ids_(std::move(source_ids)) {}

  /// Stopping criterion for a mediation run: at most `max_plans` plans
  /// (must be positive). A client that wants to stop earlier, on answers or
  /// on spend (Section 1: "query execution can be aborted as soon as the user
  /// has found a satisfactory answer"), stops pulling steps from the stream.
  struct RunLimits {
    int max_plans = 0;
  };

  /// Pulls up to `limits.max_plans` plans from `orderer` and runs the
  /// pipeline, executing each usable plan with `executor`: set-oriented
  /// (MakeSetOrientedExecutor), serial dependent joins
  /// (MakeDependentJoinExecutor) or the resilient concurrent runtime
  /// (runtime::SourceRuntime). Stops early when the orderer is exhausted.
  /// Plans the executor reports as failed are discarded gracefully, exactly
  /// like unsound plans.
  StatusOr<MediatorResult> Run(core::Orderer& orderer, const RunLimits& limits,
                               PlanExecutor& executor);

  /// Opens an incremental run: the same pipeline as Run, but the caller pulls
  /// one MediatorStep at a time (the service layer streams these to clients
  /// and can stop between any two steps at zero cost). `orderer` and
  /// `executor` must outlive the stream; the mediator itself must too. Fails
  /// with kInvalidArgument unless `limits.max_plans` is positive.
  StatusOr<MediatorStream> OpenStream(core::Orderer& orderer,
                                      const RunLimits& limits,
                                      PlanExecutor& executor) const;

 private:
  friend class MediatorStream;

  const datalog::Catalog* catalog_;
  datalog::ConjunctiveQuery query_;
  std::vector<std::vector<datalog::SourceId>> source_ids_;
};

/// An in-flight mediation run exposed as a pull stream. Each NextStep() call
/// advances the pipeline by exactly one orderer plan — translate, soundness
/// test, executable-order search, execution, answer dedup — and returns that
/// step. The stream ends (kNotFound) when the orderer is exhausted or
/// `max_plans` plans have been pulled; any other error status aborts the
/// stream permanently. Movable, not copyable; Mediator::Run is now a thin
/// loop over this class, so both paths are behavior-identical by
/// construction.
class MediatorStream {
 public:
  MediatorStream(MediatorStream&&) = default;
  MediatorStream& operator=(MediatorStream&&) = default;

  /// Advances the run by one plan. kNotFound = stream over (not an error).
  StatusOr<MediatorStep> NextStep();

  /// True once NextStep has returned kNotFound or an error.
  bool done() const { return done_; }

  /// The accumulated result over all steps returned so far. `TakeResult`
  /// finalizes and moves it out; the stream is done afterwards.
  const MediatorResult& result() const { return result_; }
  MediatorResult TakeResult();

  /// Distinct-answer dedup set. Iteration order is explicitly outside the
  /// stream contract (Session::Answers documents "unspecified order"), and
  /// the insertion sequence is the deterministic plan emission order, so any
  /// consumer iterating it still sees a reproducible sequence for a fixed
  /// standard library.
  // detlint: order-insensitive(membership dedup; order outside the contract)
  using AnswerSet = std::unordered_set<std::vector<datalog::Term>,
                                       datalog::TermVectorHash>;

  /// The distinct answer tuples accumulated so far.
  const AnswerSet& answers() const { return answers_; }

 private:
  friend class Mediator;

  MediatorStream(const Mediator* mediator, core::Orderer* orderer,
                 Mediator::RunLimits limits, PlanExecutor* executor)
      : mediator_(mediator),
        orderer_(orderer),
        limits_(limits),
        executor_(executor) {}

  const Mediator* mediator_;
  core::Orderer* orderer_;
  Mediator::RunLimits limits_;
  PlanExecutor* executor_;
  int plans_emitted_ = 0;
  AnswerSet answers_;
  MediatorResult result_;
  bool done_ = false;
};

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_MEDIATOR_H_
