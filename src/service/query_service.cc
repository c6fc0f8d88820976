#include "service/query_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/orderer_factory.h"
#include "core/plan_space.h"
#include "datalog/canonicalize.h"
#include "datalog/containment.h"
#include "datalog/parser.h"
#include "reformulation/statistics.h"
#include "utility/measures.h"

namespace planorder::service {

namespace {

/// Rebuilds one persisted reformulation, or returns null when the entry does
/// not parse, names a SourceId outside the catalog, holds an invalid
/// workload, or has SourceId buckets shaped unlike its workload's buckets
/// (sessions index the one by the other).
std::shared_ptr<CachedReformulation> RestoreEntry(
    const adaptive::StoredReformulation& stored, int num_sources) {
  StatusOr<datalog::ConjunctiveQuery> parsed =
      datalog::ParseRule(stored.canonical_text);
  if (!parsed.ok()) return nullptr;
  for (const std::vector<int>& bucket : stored.buckets) {
    for (int id : bucket) {
      if (id < 0 || id >= num_sources) return nullptr;
    }
  }
  StatusOr<stats::Workload> workload = stats::Workload::FromParts(
      stored.stat_buckets, stored.region_weights, stored.access_overhead,
      stored.domain_sizes);
  if (!workload.ok()) return nullptr;
  if (stored.buckets.size() != size_t(workload->num_buckets())) return nullptr;
  for (int b = 0; b < workload->num_buckets(); ++b) {
    if (stored.buckets[size_t(b)].size() != size_t(workload->bucket_size(b))) {
      return nullptr;
    }
  }
  auto entry = std::make_shared<CachedReformulation>();
  entry->canonical = datalog::CanonicalizeQuery(*parsed);
  entry->buckets.buckets = stored.buckets;
  entry->workload = *std::move(workload);
  return entry;
}

}  // namespace

QueryService::QueryService(const datalog::Catalog* catalog,
                           const datalog::Database* source_facts,
                           ServiceOptions options,
                           exec::PlanExecutor* executor)
    : catalog_(catalog),
      source_facts_(source_facts),
      options_(std::move(options)),
      owned_executor_(executor != nullptr
                          ? nullptr
                          : exec::MakeSetOrientedExecutor(source_facts)),
      executor_(executor != nullptr ? executor : owned_executor_.get()),
      clock_(options_.clock != nullptr ? options_.clock
                                       : runtime::RealClock::Instance()),
      cache_(options_.cache_capacity) {
  WarmLoadPlanStore();
}

void QueryService::WarmLoadPlanStore() {
  if (options_.plan_store == nullptr) return;
  StatusOr<adaptive::StoreContents> loaded = options_.plan_store->Load();
  if (!loaded.ok()) {
    // kNotFound = fresh deployment; anything else = damaged store. Both are
    // cold starts, only the latter is worth counting.
    if (loaded.status().code() != StatusCode::kNotFound) {
      MutexLock lock(mu_);
      ++metrics_.plan_store_load_failures;
    }
    return;
  }
  if (loaded->num_sources != catalog_->num_sources()) {
    // The store was written against a different catalog; its SourceIds
    // would dereference arbitrary sources here.
    MutexLock lock(mu_);
    ++metrics_.plan_store_load_failures;
    return;
  }
  int64_t restored = 0;
  int64_t rejected = 0;
  // The store lists entries most-recently-used first; inserting in reverse
  // reproduces that LRU order in the warm cache.
  for (auto it = loaded->entries.rbegin(); it != loaded->entries.rend(); ++it) {
    std::shared_ptr<CachedReformulation> entry =
        RestoreEntry(*it, catalog_->num_sources());
    if (entry == nullptr) {
      ++rejected;
      continue;
    }
    cache_.Insert(std::move(entry));
    ++restored;
  }
  if (options_.observed_stats != nullptr) {
    for (const auto& [name, estimate] : loaded->observed) {
      options_.observed_stats->Restore(name, estimate);
    }
  }
  MutexLock lock(mu_);
  metrics_.plan_store_entries_loaded += restored;
  metrics_.plan_store_entries_rejected += rejected;
}

Status QueryService::PersistPlanStore() {
  if (options_.plan_store == nullptr) {
    return FailedPreconditionError("no plan store configured");
  }
  adaptive::StoreContents contents;
  contents.num_sources = catalog_->num_sources();
  for (const std::shared_ptr<const CachedReformulation>& entry :
       cache_.Snapshot()) {
    adaptive::StoredReformulation stored;
    // The canonical key IS the canonical query's text form — ParseRule +
    // CanonicalizeQuery restore the exact cache key on warm load.
    stored.canonical_text = entry->canonical.key;
    stored.buckets = entry->buckets.buckets;
    const stats::Workload& w = entry->workload;
    stored.stat_buckets.resize(size_t(w.num_buckets()));
    stored.domain_sizes.reserve(size_t(w.num_buckets()));
    for (int b = 0; b < w.num_buckets(); ++b) {
      stored.stat_buckets[b].reserve(size_t(w.bucket_size(b)));
      for (int i = 0; i < w.bucket_size(b); ++i) {
        stored.stat_buckets[b].push_back(w.source(b, i));
      }
      stored.domain_sizes.push_back(w.domain_size(b));
    }
    stored.region_weights = w.region_weights();
    stored.access_overhead = w.access_overhead();
    contents.entries.push_back(std::move(stored));
  }
  if (options_.observed_stats != nullptr) {
    contents.observed = options_.observed_stats->Snapshot();
  }
  Status saved;
  {
    MutexLock lock(store_mu_);
    saved = options_.plan_store->Save(contents);
  }
  MutexLock lock(mu_);
  if (saved.ok()) {
    ++metrics_.plan_store_saves;
  } else {
    ++metrics_.plan_store_save_failures;
  }
  return saved;
}

Status QueryService::Admit() {
  MutexLock lock(mu_);
  if (metrics_.active_sessions < options_.max_active_sessions) {
    ++metrics_.active_sessions;
    ++metrics_.sessions_admitted;
    return OkStatus();
  }
  if (metrics_.queue_depth >= options_.max_queued_admissions ||
      options_.admission_timeout_ms <= 0.0) {
    ++metrics_.sessions_shed;
    return ResourceExhaustedError(
        "admission queue full (" + std::to_string(metrics_.queue_depth) +
        " waiting on " + std::to_string(options_.max_active_sessions) +
        " slots); load shed, retry later");
  }
  ++metrics_.queue_depth;
  ++metrics_.sessions_queued;
  metrics_.queue_depth_peak =
      std::max(metrics_.queue_depth_peak, metrics_.queue_depth);
  const bool got_slot = slot_free_.WaitForMs(
      lock, options_.admission_timeout_ms, [this]() REQUIRES(mu_) {
        return metrics_.active_sessions < options_.max_active_sessions;
      });
  --metrics_.queue_depth;
  if (!got_slot) {
    ++metrics_.sessions_shed;
    return ResourceExhaustedError(
        "no admission slot within " +
        std::to_string(options_.admission_timeout_ms) +
        "ms; load shed, retry later");
  }
  ++metrics_.active_sessions;
  ++metrics_.sessions_admitted;
  return OkStatus();
}

void QueryService::Release() {
  {
    MutexLock lock(mu_);
    --metrics_.active_sessions;
  }
  slot_free_.NotifyOne();
}

void QueryService::OnSessionFinished(const exec::MediatorResult& result,
                                     double elapsed_ms) {
  MutexLock lock(mu_);
  ++metrics_.sessions_completed;
  metrics_.latency.Record(elapsed_ms);
  metrics_.total_answers += static_cast<int64_t>(result.total_answers);
  metrics_.total_steps += static_cast<int64_t>(result.steps.size());
  metrics_.runtime.Merge(result.runtime);
}

StatusOr<QueryService::ReformulationOutcome> QueryService::Reformulate(
    const datalog::ConjunctiveQuery& query) {
  datalog::CanonicalQuery canonical = datalog::CanonicalizeQuery(query);
  {
    MutexLock lock(mu_);
    ++metrics_.canonicalizations;
  }
  std::shared_ptr<const CachedReformulation> entry = cache_.Lookup(canonical);
  if (entry != nullptr) {
    const bool verified =
        datalog::AreEquivalent(entry->canonical.query, canonical.query);
    {
      MutexLock lock(mu_);
      ++metrics_.cache_verifications;
      if (!verified) ++metrics_.cache_verification_failures;
    }
    if (verified) return ReformulationOutcome{std::move(entry), true};
    // Key matched a non-equivalent query (should be impossible; counted
    // above) — fall through to the cold path rather than serve wrong plans.
  }

  auto fresh = std::make_shared<CachedReformulation>();
  fresh->canonical = std::move(canonical);
  PLANORDER_ASSIGN_OR_RETURN(
      fresh->buckets,
      reformulation::BuildBuckets(fresh->canonical.query, *catalog_));
  PLANORDER_ASSIGN_OR_RETURN(
      fresh->workload,
      reformulation::EstimateWorkloadFromInstances(
          fresh->canonical.query, *catalog_, fresh->buckets, *source_facts_,
          {}, estimation_memo_));
  cache_.Insert(fresh);
  if (options_.plan_store != nullptr) {
    // Best-effort: a failed persist leaves the service fully functional
    // (the next cold miss retries); Metrics counts saves and failures.
    (void)PersistPlanStore();
  }
  return ReformulationOutcome{std::move(fresh), false};
}

std::vector<std::vector<std::string>> QueryService::ResolveSourceNames(
    const std::vector<std::vector<datalog::SourceId>>& buckets) const {
  std::vector<std::vector<std::string>> names(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    names[b].reserve(buckets[b].size());
    for (const datalog::SourceId id : buckets[b]) {
      names[b].push_back(catalog_->source(id).name);
    }
  }
  return names;
}

Status QueryService::SetUpOrdering(Session& session) {
  const stats::Workload* workload = &session.reformulation_->workload;
  if (options_.observed_stats != nullptr) {
    // The adaptive wrapper owns its per-generation models and inner orderer;
    // the session's reformulation workload serves as the estimate baseline.
    adaptive::AdaptiveOptions adaptive_options;
    adaptive_options.inner = core::OrdererKind::kAuto;
    adaptive_options.measure = options_.measure;
    PLANORDER_ASSIGN_OR_RETURN(
        session.orderer_,
        adaptive::AdaptiveOrderer::Create(
            workload,
            ResolveSourceNames(session.reformulation_->buckets.buckets),
            options_.observed_stats, adaptive_options));
  } else {
    PLANORDER_ASSIGN_OR_RETURN(
        session.model_, utility::MakeMeasure(options_.measure, workload));
    PLANORDER_ASSIGN_OR_RETURN(
        session.orderer_,
        core::MakeOrderer({}, workload, session.model_.get(),
                          {core::PlanSpace::FullSpace(*workload)}));
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<Session>> QueryService::PrepareSession(
    const datalog::ConjunctiveQuery& query) {
  PLANORDER_RETURN_IF_ERROR(Admit());
  auto reformed = Reformulate(query);
  if (!reformed.ok()) {
    Release();  // no session took ownership of the slot
    return reformed.status();
  }
  // From here the session owns the slot: every error path below destroys it,
  // and ~Session releases.
  std::unique_ptr<Session> session(
      new Session(this, std::move(reformed->entry), reformed->hit));
  if (options_.source_cache_view != nullptr) {
    // Resolve each (bucket, index) to its catalog source name once: the
    // per-step residency refresh is then pure lookups against the view.
    session->source_names_ =
        ResolveSourceNames(session->reformulation_->buckets.buckets);
  }
  PLANORDER_RETURN_IF_ERROR(SetUpOrdering(*session));
  if (options_.source_cache_view != nullptr) {
    // Initial snapshot: a session orders against the open-time cache state
    // until its first step refreshes it.
    session->RefreshResidency();
  }
  return session;
}

StatusOr<std::unique_ptr<Session>> QueryService::OpenSession(
    const datalog::ConjunctiveQuery& query,
    const exec::Mediator::RunLimits& limits) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                             PrepareSession(query));
  session->mediator_ = std::make_unique<exec::Mediator>(
      catalog_, session->reformulation_->canonical.query,
      session->reformulation_->buckets.buckets);
  PLANORDER_ASSIGN_OR_RETURN(
      exec::MediatorStream stream,
      session->mediator_->OpenStream(*session->orderer_, limits, *executor_));
  session->stream_.emplace(std::move(stream));
  return session;
}

StatusOr<std::unique_ptr<Session>> QueryService::OpenRankedSession(
    const datalog::ConjunctiveQuery& query,
    const anyk::RankedAnswerStream::Options& options) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                             PrepareSession(query));
  // Ranked mode always evaluates set-oriented against the source facts: the
  // any-k DP needs the admissible tuples of every body atom, not a dependent
  // join's reachable slice.
  PLANORDER_ASSIGN_OR_RETURN(
      anyk::RankedAnswerStream stream,
      anyk::RankedAnswerStream::Open(
          *catalog_, session->reformulation_->canonical.query, *source_facts_,
          session->reformulation_->buckets.buckets, *session->orderer_,
          options));
  session->ranked_.emplace(std::move(stream));
  return session;
}

StatusOr<exec::MediatorResult> QueryService::RunQuery(
    const datalog::ConjunctiveQuery& query,
    const exec::Mediator::RunLimits& limits) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                             OpenSession(query, limits));
  while (true) {
    auto step = session->NextStep();
    if (!step.ok()) {
      if (step.status().code() == StatusCode::kNotFound) break;
      return step.status();
    }
  }
  return session->Finish();
}

ServiceMetricsSnapshot QueryService::Metrics() const {
  ServiceMetricsSnapshot snapshot;
  {
    MutexLock lock(mu_);
    snapshot = metrics_;
  }
  snapshot.cache = cache_.stats();
  snapshot.estimation_memo = estimation_memo_.stats();
  return snapshot;
}

}  // namespace planorder::service
