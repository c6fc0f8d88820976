#include "service_common.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/plan_space.h"
#include "core/streamer.h"
#include "datalog/canonicalize.h"
#include "datalog/containment.h"
#include "datalog/unify.h"
#include "reformulation/bucket.h"
#include "reformulation/executable_order.h"
#include "reformulation/rewriting.h"
#include "reformulation/statistics.h"
#include "trace.h"
#include "utility/measures.h"

namespace planbench {

datalog::ConjunctiveQuery RenameVariables(const datalog::ConjunctiveQuery& query,
                                          const std::string& suffix) {
  datalog::Substitution renaming;
  auto collect = [&renaming, &suffix](const datalog::Atom& atom) {
    for (const datalog::Term& term : atom.args) {
      if (term.is_variable()) {
        renaming[term.name()] = datalog::Term::Variable(term.name() + suffix);
      }
    }
  };
  collect(query.head);
  for (const datalog::Atom& atom : query.body) collect(atom);
  datalog::ConjunctiveQuery variant(
      datalog::ApplySubstitution(query.head, renaming), {});
  for (const datalog::Atom& atom : query.body) {
    variant.body.push_back(datalog::ApplySubstitution(atom, renaming));
  }
  return variant;
}

datalog::ConjunctiveQuery WithHead(const datalog::ConjunctiveQuery& query,
                                   std::vector<datalog::Term> head_args) {
  datalog::ConjunctiveQuery result = query;
  result.head.args = std::move(head_args);
  return result;
}

std::vector<datalog::ConjunctiveQuery> HeadRotations(
    const datalog::ConjunctiveQuery& chain, int count) {
  // The chain's variables in body order: X0 of the first atom, then the
  // second argument of every atom.
  std::vector<datalog::Term> variables = {chain.body.front().args.front()};
  for (const datalog::Atom& atom : chain.body) {
    variables.push_back(atom.args.back());
  }
  std::vector<datalog::ConjunctiveQuery> classes;
  const size_t n = variables.size();
  for (int c = 0; c < count; ++c) {
    std::vector<datalog::Term> head;
    for (size_t a = 0; a < n; ++a) {
      head.push_back(variables[(a + size_t(c)) % n]);
    }
    // Past the n rotations, the same rotations reversed.
    if (size_t(c) % (2 * n) >= n) std::reverse(head.begin(), head.end());
    classes.push_back(WithHead(chain, std::move(head)));
  }
  return classes;
}

Tuples Sorted(Tuples tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

bool IsSubset(const Tuples& subset, const Tuples& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

StatusOr<std::unique_ptr<exec::SourceRegistry>> MakeRegistry(
    const exec::SyntheticDomain& domain) {
  auto registry = std::make_unique<exec::SourceRegistry>();
  for (datalog::SourceId id = 0; id < domain.catalog.num_sources(); ++id) {
    const std::string& name = domain.catalog.source(id).name;
    auto source = registry->Register(
        name, domain.catalog.source(id).view.head.args.size());
    if (!source.ok()) return source.status();
    for (const auto& tuple : domain.source_facts.TuplesFor(name)) {
      PLANORDER_RETURN_IF_ERROR((*source)->Add(tuple));
    }
  }
  return registry;
}

StatusOr<exec::PlanExecution> TimedExecutor::ExecutePlan(
    const datalog::ConjunctiveQuery& rewriting) {
  ScopedSpan span("ExecutePlan", layer_);
  return inner_->ExecutePlan(rewriting);
}

StatusOr<std::shared_ptr<const service::CachedReformulation>> Reformulate(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& source_facts) {
  auto entry = std::make_shared<service::CachedReformulation>();
  entry->canonical = datalog::CanonicalizeQuery(query);
  PLANORDER_ASSIGN_OR_RETURN(
      entry->buckets,
      planorder::reformulation::BuildBuckets(entry->canonical.query, catalog));
  PLANORDER_ASSIGN_OR_RETURN(
      entry->workload,
      planorder::reformulation::EstimateWorkloadFromInstances(
          entry->canonical.query, catalog, entry->buckets, source_facts));
  return std::shared_ptr<const service::CachedReformulation>(std::move(entry));
}

Status SaveStore(const service::ReformulationCache& cache, int num_sources,
                 const planorder::adaptive::PlanStore& store) {
  planorder::adaptive::StoreContents contents;
  contents.num_sources = num_sources;
  for (const auto& entry : cache.Snapshot()) {
    planorder::adaptive::StoredReformulation stored;
    stored.canonical_text = entry->canonical.key;
    stored.buckets = entry->buckets.buckets;
    const planorder::stats::Workload& w = entry->workload;
    stored.stat_buckets.resize(size_t(w.num_buckets()));
    for (int b = 0; b < w.num_buckets(); ++b) {
      for (int i = 0; i < w.bucket_size(b); ++i) {
        stored.stat_buckets[size_t(b)].push_back(w.source(b, i));
      }
      stored.domain_sizes.push_back(w.domain_size(b));
    }
    stored.region_weights = w.region_weights();
    stored.access_overhead = w.access_overhead();
    contents.entries.push_back(std::move(stored));
  }
  ScopedSpan span("PlanStore::Save", "adaptive");
  return store.Save(contents);
}

StatusOr<std::shared_ptr<const service::CachedReformulation>>
ReplayReformulation(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& source_facts, const ReplayCache& replay_cache) {
  int32_t span = Tracer::Push("CanonicalizeQuery", "datalog");
  datalog::CanonicalQuery canonical = datalog::CanonicalizeQuery(query);
  Tracer::Pop(span);
  span = Tracer::Push("ReformulationCache::Lookup", "service");
  std::shared_ptr<const service::CachedReformulation> entry =
      replay_cache.cache->Lookup(canonical);
  Tracer::Pop(span);
  if (entry != nullptr) {
    ScopedSpan verify("AreEquivalent", "datalog");
    if (!datalog::AreEquivalent(entry->canonical.query, canonical.query)) {
      return planorder::InternalError("replay: cache hit is not equivalent");
    }
    return entry;
  }
  auto fresh = std::make_shared<service::CachedReformulation>();
  fresh->canonical = std::move(canonical);
  {
    ScopedSpan buckets("BuildBuckets", "reformulation");
    PLANORDER_ASSIGN_OR_RETURN(fresh->buckets,
                               planorder::reformulation::BuildBuckets(
                                   fresh->canonical.query, catalog));
  }
  {
    ScopedSpan estimate("EstimateWorkloadFromInstances", "reformulation");
    PLANORDER_ASSIGN_OR_RETURN(
        fresh->workload,
        planorder::reformulation::EstimateWorkloadFromInstances(
            fresh->canonical.query, catalog, fresh->buckets, source_facts));
  }
  span = Tracer::Push("ReformulationCache::Insert", "service");
  replay_cache.cache->Insert(fresh);
  Tracer::Pop(span);
  if (replay_cache.store != nullptr) {
    ScopedSpan persist("PersistPlanStore", "service");
    PLANORDER_RETURN_IF_ERROR(SaveStore(*replay_cache.cache,
                                        catalog.num_sources(),
                                        *replay_cache.store));
  }
  return std::shared_ptr<const service::CachedReformulation>(std::move(fresh));
}

void ServiceLayerMetrics(const Tracer::Summary& trace, const char* open_span,
                         int64_t evaluations,
                         const service::ServiceMetricsSnapshot& before,
                         const service::ServiceMetricsSnapshot& after,
                         int64_t ops, LayerValues* values) {
  CoreLayerMetrics(trace, evaluations, values);
  LayerValues& v = *values;
  v["datalog.canonicalize_us_p50"] =
      SpanPercentile(trace, "CanonicalizeQuery", 50.0);
  v["datalog.verify_us_p50"] = SpanPercentile(trace, "AreEquivalent", 50.0);
  v["service.open_ms_p50"] = SpanPercentile(trace, open_span, 50.0, 1e-3);
  const double hits = double(after.cache.hits - before.cache.hits);
  const double misses = double(after.cache.misses - before.cache.misses);
  v["service.reform_hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  v["service.reform_evictions_per_op"] =
      ops > 0 ? double(after.cache.evictions - before.cache.evictions) /
                    double(ops)
              : 0.0;
  const double admitted =
      double(after.sessions_admitted - before.sessions_admitted);
  v["service.queued_frac"] =
      admitted > 0.0
          ? double(after.sessions_queued - before.sessions_queued) / admitted
          : 0.0;
}

StatusOr<PlanRun> ReplayPlanSession(const datalog::ConjunctiveQuery& query,
                                    const datalog::Catalog& catalog,
                                    const datalog::Database& source_facts,
                                    const ReplayCache& replay_cache,
                                    exec::PlanExecutor& executor,
                                    const service::SharedOperationView* view,
                                    int max_plans) {
  PLANORDER_ASSIGN_OR_RETURN(
      std::shared_ptr<const service::CachedReformulation> entry,
      ReplayReformulation(query, catalog, source_facts, replay_cache));
  const planorder::stats::Workload* workload = &entry->workload;
  const std::vector<std::vector<datalog::SourceId>>& buckets =
      entry->buckets.buckets;

  int32_t span = Tracer::Push("MakeMeasure", "utility");
  auto model = planorder::utility::MakeMeasure(
      planorder::utility::MeasureKind::kCoverage, workload);
  Tracer::Pop(span);
  if (!model.ok()) return model.status();
  span = Tracer::Push("Orderer::Create", "core");
  auto orderer = planorder::core::StreamerOrderer::Create(
      workload, model->get(), {planorder::core::PlanSpace::FullSpace(*workload)});
  Tracer::Pop(span);
  if (!orderer.ok()) return orderer.status();

  PlanRun run;
  // Membership dedup only, as in exec::MediatorStream; sorted after.
  std::unordered_set<std::vector<datalog::Term>, datalog::TermVectorHash>
      answers;
  for (int step = 0; step < max_plans; ++step) {
    // The step span's self time is the answer dedup: every other stage of
    // the step has its own child span.
    ScopedSpan step_span("step", "exec");
    if (view != nullptr) {
      ScopedSpan refresh("RefreshResidency", "service");
      for (size_t b = 0; b < buckets.size(); ++b) {
        for (size_t i = 0; i < buckets[b].size(); ++i) {
          (*orderer)->SetExternallyCached(
              int(b), int(i),
              view->IsResident(catalog.source(buckets[b][i]).name));
        }
      }
    }
    span = Tracer::Push("Orderer::Next", "core");
    auto next = (*orderer)->Next();
    Tracer::Pop(span);
    if (!next.ok()) {
      if (next.status().code() == planorder::StatusCode::kNotFound) break;
      return next.status();
    }
    run.plans.push_back(next->plan);
    std::vector<datalog::SourceId> choice(next->plan.size());
    for (size_t b = 0; b < next->plan.size(); ++b) {
      choice[b] = buckets[b][size_t(next->plan[b])];
    }
    span = Tracer::Push("BuildSoundPlan", "reformulation");
    auto plan = planorder::reformulation::BuildSoundPlan(
        entry->canonical.query, catalog, choice);
    Tracer::Pop(span);
    if (!plan.ok()) return plan.status();
    if (!plan->has_value()) {
      (*orderer)->ReportDiscarded();
      continue;
    }
    ++run.sound;
    span = Tracer::Push("FindExecutableOrder", "reformulation");
    auto ordered =
        planorder::reformulation::FindExecutableOrder(**plan, catalog);
    Tracer::Pop(span);
    if (!ordered.ok()) {
      if (ordered.status().code() != planorder::StatusCode::kFailedPrecondition) {
        return ordered.status();
      }
      (*orderer)->ReportDiscarded();
      continue;
    }
    PLANORDER_ASSIGN_OR_RETURN(exec::PlanExecution execution,
                               executor.ExecutePlan(ordered->rewriting));
    ++run.executed;
    run.source_calls += execution.source_calls;
    run.tuples_shipped += execution.tuples_shipped;
    if (execution.failed) {
      (*orderer)->ReportDiscarded();
      continue;
    }
    for (std::vector<datalog::Term>& tuple : execution.tuples) {
      answers.insert(std::move(tuple));
    }
  }
  run.evaluations = (*orderer)->plan_evaluations();
  run.answers = Sorted(Tuples(answers.begin(), answers.end()));
  // Freeing the orderer is session cost too (paid when a session dies).
  span = Tracer::Push("Orderer::~Orderer", "core");
  orderer->reset();
  Tracer::Pop(span);
  return run;
}

}  // namespace planbench
