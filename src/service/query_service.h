#ifndef PLANORDER_SERVICE_QUERY_SERVICE_H_
#define PLANORDER_SERVICE_QUERY_SERVICE_H_

#include <memory>

#include "adaptive/adaptive_orderer.h"
#include "adaptive/observed_stats.h"
#include "adaptive/plan_store.h"
#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "datalog/source.h"
#include "exec/mediator.h"
#include "reformulation/statistics.h"
#include "runtime/clock.h"
#include "service/metrics.h"
#include "service/reformulation_cache.h"
#include "service/session.h"
#include "service/shared_view.h"
#include "utility/measures.h"

namespace planorder::service {

/// Configuration of a QueryService.
struct ServiceOptions {
  /// Reformulation-cache entries kept resident; 0 disables the cache. Every
  /// hit is re-verified with the Chandra-Merlin containment test
  /// (datalog::AreEquivalent) before it is served.
  size_t cache_capacity = 64;

  /// Admission control: at most this many sessions hold slots at once ...
  int max_active_sessions = 8;
  /// ... at most this many more may wait for a slot; beyond that OpenSession
  /// sheds immediately with kResourceExhausted.
  int max_queued_admissions = 16;
  /// How long a queued admission waits for a slot before shedding; <= 0
  /// never waits (full = shed).
  double admission_timeout_ms = 1000.0;

  /// Utility measure every session's orderer optimizes. The orderer is
  /// chosen from it by core::OrdererKind::kAuto: Greedy for fully
  /// monotonic measures, persistent iDrips for every other one (coverage
  /// and the caching variants included).
  utility::MeasureKind measure = utility::MeasureKind::kCoverage;

  /// Read-only residency view of a cross-session source-operation cache
  /// (borrowed, may be null). When set, each session polls it before every
  /// plan emission and marks resident sources externally cached in its
  /// orderer, so cached operations are charged zero residual cost by the
  /// cache-aware measures — see src/cluster/ and DESIGN.md §10.
  SharedOperationView* source_cache_view = nullptr;

  /// Versioned on-disk plan/stats store (borrowed, may be null; DESIGN.md
  /// §12). At construction the service warm-loads every persisted
  /// reformulation into the cache — skipping bucket construction and the
  /// full-instance statistics scan for queries seen before the restart — and
  /// restores persisted learned statistics into `observed_stats`. A corrupt,
  /// truncated or version-mismatched store is counted and ignored (cold
  /// start, never a crash). Every cold reformulation re-persists the store;
  /// PersistPlanStore() flushes on demand (e.g. at shutdown).
  adaptive::PlanStore* plan_store = nullptr;

  /// Observed per-source statistics layer (borrowed, may be null). Wire the
  /// same object as runtime::RuntimeOptions::trace_sink to close the loop:
  /// execution traces fold into it and the plan store persists/restores it
  /// across restarts. When set, every session's orderer is an
  /// adaptive::AdaptiveOrderer over it (default adaptive::DriftOptions):
  /// when folded observations leave the divergence band, the session
  /// discards its remaining plan order mid-stream and reorders under the
  /// blended statistics.
  adaptive::ObservedStats* observed_stats = nullptr;

  /// Time source for session latency metrics (borrowed; nullptr = the
  /// process-wide RealClock). Inject a runtime::VirtualClock to make latency
  /// accounting fully deterministic — the only wall-clock read the service
  /// layer performs goes through this hook.
  runtime::Clock* clock = nullptr;
};

/// The multi-query mediator front end: many concurrent client sessions over
/// one catalog, one source-facts corpus (or one shared resilient runtime)
/// and one reformulation cache.
///
/// Per query the service (1) canonicalizes — isomorphic queries collapse to
/// one canonical form; (2) consults the LRU reformulation cache, skipping
/// the bucket algorithm and workload estimation on a hit (a miss estimates
/// through the service's binding-hash memo, so sources already scanned for
/// the same subgoal pattern are merged, not rescanned); (3) builds a
/// per-session orderer over the (shared, immutable) cached workload; and
/// (4) hands back a streaming Session. Because hit and cold paths both run
/// the mediator on the canonical query over the canonical bucket order, a
/// cache hit yields byte-identical plan order and answers to the cold run.
///
/// Thread-safe: OpenSession/RunQuery/Metrics may be called from many client
/// threads. The plan executor shared across sessions must itself be
/// thread-safe (runtime::SourceRuntime is; the default set-oriented
/// executor is stateless).
class QueryService {
 public:
  /// `catalog` and `source_facts` must outlive the service. `executor`
  /// (optional) is the shared plan-execution strategy for all sessions —
  /// pass a runtime::SourceRuntime for resilient concurrent source access;
  /// nullptr means set-oriented evaluation against `source_facts`.
  QueryService(const datalog::Catalog* catalog,
               const datalog::Database* source_facts, ServiceOptions options,
               exec::PlanExecutor* executor = nullptr);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits, reformulates (through the cache) and opens a streaming session
  /// for `query`. Blocks up to admission_timeout_ms when all slots are
  /// busy; kResourceExhausted = load shed (queue full or timeout), retry
  /// later. The session holds its slot until Finish()/destruction.
  StatusOr<std::unique_ptr<Session>> OpenSession(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits);

  /// As OpenSession, but in ranked mode: the session's plan ordering feeds
  /// an any-k ranked answer stream (src/anyk/) instead of the per-plan step
  /// stream — NextRankedAnswer() yields the union of the sound plans'
  /// answers best-weight-first with duplicates suppressed, without
  /// materializing any plan's full join. Admission, the reformulation cache
  /// and the orderer choice are shared with plan-mode sessions.
  StatusOr<std::unique_ptr<Session>> OpenRankedSession(
      const datalog::ConjunctiveQuery& query,
      const anyk::RankedAnswerStream::Options& options);

  /// Convenience: open a session, drain it, Finish. What a non-interactive
  /// client does.
  StatusOr<exec::MediatorResult> RunQuery(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits);

  ServiceMetricsSnapshot Metrics() const;

  /// Serializes the current reformulation cache (most-recently-used first)
  /// plus the learned statistics snapshot into the configured plan store,
  /// atomically. kFailedPrecondition when no store is configured.
  Status PersistPlanStore() EXCLUDES(store_mu_);

  const ServiceOptions& options() const { return options_; }

 private:
  friend class Session;

  /// Blocks for an admission slot per the options. OK = slot held.
  Status Admit() EXCLUDES(mu_);
  /// Returns a slot (Session finish/destruction path).
  void Release() EXCLUDES(mu_);
  /// Folds a finished session's totals into the service metrics.
  void OnSessionFinished(const exec::MediatorResult& result,
                         double elapsed_ms) EXCLUDES(mu_);

  /// Canonicalize + cache lookup + containment verification of the hit,
  /// computing and inserting the reformulation on a miss. Returns the entry
  /// and whether it was a hit.
  struct ReformulationOutcome {
    std::shared_ptr<const CachedReformulation> entry;
    bool hit = false;
  };
  StatusOr<ReformulationOutcome> Reformulate(
      const datalog::ConjunctiveQuery& query);

  /// Builds `session`'s utility model and orderer over its (cached, shared)
  /// reformulation.
  Status SetUpOrdering(Session& session);

  /// Admission + reformulation + ordering — everything shared between plan
  /// and ranked sessions. On success the returned session owns its slot.
  StatusOr<std::unique_ptr<Session>> PrepareSession(
      const datalog::ConjunctiveQuery& query);

  /// Resolves each (bucket, index) of `buckets` to its catalog source name.
  std::vector<std::vector<std::string>> ResolveSourceNames(
      const std::vector<std::vector<datalog::SourceId>>& buckets) const;

  /// Restores persisted reformulations + learned stats at construction.
  void WarmLoadPlanStore();

  const datalog::Catalog* catalog_;
  const datalog::Database* source_facts_;
  const ServiceOptions options_;
  std::unique_ptr<exec::PlanExecutor> owned_executor_;
  exec::PlanExecutor* executor_;  // owned_executor_.get() or caller's
  runtime::Clock* clock_;  // options_.clock or the process-wide RealClock
  ReformulationCache cache_;
  /// Per-source binding hashes of `catalog_` over `source_facts_`, shared by
  /// every reformulation miss (bounded by reformulation::kBindingMemoBytes).
  reformulation::BindingHashMemo estimation_memo_;

  mutable Mutex mu_;
  CondVar slot_free_;
  /// Every counter of Metrics() but the cache and memo stats, which their
  /// owners keep. Its `active_sessions` and `queue_depth` are also the
  /// admission state: the slots held and the admissions waiting for one.
  ServiceMetricsSnapshot metrics_ GUARDED_BY(mu_);
  /// Serializes whole-store rewrites (Save is atomic per call; this orders
  /// concurrent cold-miss persists).
  Mutex store_mu_;
};

}  // namespace planorder::service

#endif  // PLANORDER_SERVICE_QUERY_SERVICE_H_
