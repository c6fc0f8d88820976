/// service-hot and service-cold: plan-mode sessions through the service
/// front end, one closed-loop client each.
///
/// service-hot: a 2-shard ShardedService over the resilient SourceRuntime at
/// zero simulated latency, with the cross-session source-operation cache big
/// enough for the whole working set. A few query classes, all resident in
/// the reformulation cache; every session drains 16 plans. The per-query CPU
/// cost of ordering, soundness, dependent-join execution and dedup.
///
/// service-cold: one QueryService with its set-oriented executor, an
/// 8-entry reformulation cache and an on-disk plan store, over a source-rich
/// domain. Queries are Zipf-skewed over 16 classes, more than the cache
/// holds, and each session runs one plan. The reformulation front half.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "base/rng.h"
#include "cluster/sharded_service.h"
#include "cluster/source_cache.h"
#include "runtime/source_runtime.h"
#include "service/query_service.h"
#include "service_common.h"
#include "workload.h"

namespace planbench {
namespace {

using planorder::utility::ConcretePlan;

/// Every this many sessions a traced client records one for replay.
constexpr int64_t kReplayEvery = 4;

/// The service workloads run over one fixed domain each: a session's cost
/// depends on which sources the data makes best, and a seed-drawn domain
/// moves per-class costs by a fifth. The run seed drives the request
/// stream — class draws, variable renamings — and the runtime's seed.
/// service-cold's is BENCH_service.json's source-rich domain with a third
/// of its answers: with 600, set-oriented execution of a cache hit took
/// most of the time and moved by up to half between runs on a shared host,
/// which hid the reformulation half.
constexpr uint64_t kHotDomainSeed = 17;
constexpr uint64_t kColdDomainSeed = 11;

/// One query class: the oracles' view of it.
struct QueryClass {
  datalog::ConjunctiveQuery query;
  /// Ground truth: the class query over the schema facts (sorted).
  Tuples truth;
  /// The reference session: plan sequence and sorted answers.
  std::vector<ConcretePlan> plans;
  Tuples answers;
  /// Its reformulation, for filling replay caches.
  std::shared_ptr<const service::CachedReformulation> entry;
};

/// A session a traced client sampled for replay.
struct Sampled {
  size_t cls = 0;
  bool cache_hit = false;
  std::string suffix;
};

/// Counters the clients keep over the steps they pulled.
struct StepCounters {
  std::atomic<int64_t> steps{0};
  std::atomic<int64_t> failed_steps{0};
  std::atomic<int64_t> answers_from_plans{0};
  std::atomic<int64_t> new_answers{0};
  std::atomic<int64_t> replay_evaluations{0};

  void Reset() {
    steps = 0;
    failed_steps = 0;
    answers_from_plans = 0;
    new_answers = 0;
    replay_evaluations = 0;
  }
};

/// What both plan-mode workloads share: the session op with its oracle
/// check, the replay loop, and the layer metrics they compute alike.
class PlanServiceWorkload : public Workload {
 public:
  /// One client: on a shared host a second one measured the scheduler more
  /// than the service (its medians moved by a fifth between runs).
  int clients() const override { return 1; }

  Status Op(int client, int64_t n, OpSample* sample) override {
    const size_t cls = PickClass(client);
    const std::string suffix =
        "_c" + std::to_string(client) + "n" + std::to_string(n);
    const datalog::ConjunctiveQuery query =
        RenameVariables(classes_[cls].query, suffix);
    exec::Mediator::RunLimits limits;
    limits.max_plans = max_plans_;

    Tracer::BeginOp("session", /*breakdown=*/false);
    const double start_ms = NowMs();
    int32_t span = Tracer::Push("OpenSession", "service");
    auto opened = Open(query, limits);
    Tracer::Pop(span);
    if (!opened.ok()) {
      // Shed or refused: a failure of the system, not a wrong output.
      sample->failed = true;
      sample->latency_ms = NowMs() - start_ms;
      Tracer::EndOp();
      return Status();
    }
    std::unique_ptr<service::Session> session = std::move(*opened);
    std::vector<ConcretePlan> plans;
    bool failed = false;
    int64_t answers_from_plans = 0;
    int64_t new_answers = 0;
    int64_t failed_steps = 0;
    while (true) {
      span = Tracer::Push("NextStep", "exec");
      auto step = session->NextStep();
      Tracer::Pop(span);
      if (!step.ok()) {
        failed = step.status().code() != planorder::StatusCode::kNotFound;
        break;
      }
      if (plans.empty()) sample->first_ms = NowMs() - start_ms;
      plans.push_back(step->plan);
      answers_from_plans += int64_t(step->answers_from_plan);
      new_answers += int64_t(step->new_answers);
      failed_steps += step->failed ? 1 : 0;
    }
    const bool cache_hit = session->cache_hit();
    span = Tracer::Push("Finish", "service");
    session->Finish();
    Tracer::Pop(span);
    sample->latency_ms = NowMs() - start_ms;
    Tracer::EndOp();

    counters_.steps += int64_t(plans.size());
    counters_.failed_steps += failed_steps;
    counters_.answers_from_plans += answers_from_plans;
    counters_.new_answers += new_answers;
    sample->failed = failed || failed_steps > 0;
    if (!sample->failed) {
      const QueryClass& reference = classes_[cls];
      if (plans != reference.plans) {
        return planorder::InternalError(
            name_ + ": a session of class " + std::to_string(cls) +
            " emitted another plan sequence than the class reference");
      }
      if (Sorted(session->Answers()) != reference.answers) {
        return planorder::InternalError(
            name_ + ": a session of class " + std::to_string(cls) +
            " returned other answers than the class reference");
      }
    }
    if (Tracer::Active() && n % kReplayEvery == 0) {
      sampled_[size_t(client)].push_back(Sampled{cls, cache_hit, suffix});
    }
    return Status();
  }

  Status Replay(int client, double deadline_ms) override {
    for (const Sampled& sampled : sampled_[size_t(client)]) {
      if (NowMs() >= deadline_ms) break;
      const QueryClass& reference = classes_[sampled.cls];
      const datalog::ConjunctiveQuery query =
          RenameVariables(reference.query, sampled.suffix);
      PLANORDER_ASSIGN_OR_RETURN(PlanRun run,
                                 ReplayOne(client, sampled, query));
      counters_.replay_evaluations += run.evaluations;
      if (run.plans != reference.plans || run.answers != reference.answers) {
        return planorder::InternalError(
            name_ + ": a replayed session of class " +
            std::to_string(sampled.cls) +
            " emitted other plans or answers than its session");
      }
    }
    return Status();
  }

 protected:
  PlanServiceWorkload(std::string name, int max_plans)
      : name_(std::move(name)), max_plans_(max_plans), sampled_(2) {}

  virtual StatusOr<std::unique_ptr<service::Session>> Open(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits) = 0;
  /// The class of `client`'s next session.
  virtual size_t PickClass(int client) = 0;
  /// One traced replay (an op of its own) of a session of `query`.
  virtual StatusOr<PlanRun> ReplayOne(int client, const Sampled& sampled,
                                      const datalog::ConjunctiveQuery& query) = 0;

  /// One session of `cls`, run serially outside any measurement.
  Status RunReference(size_t cls, std::vector<ConcretePlan>* plans,
                      Tuples* answers) {
    exec::Mediator::RunLimits limits;
    limits.max_plans = max_plans_;
    PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<service::Session> session,
                               Open(classes_[cls].query, limits));
    plans->clear();
    while (true) {
      auto step = session->NextStep();
      if (!step.ok()) {
        if (step.status().code() == planorder::StatusCode::kNotFound) break;
        return step.status();
      }
      if (step->failed) {
        return planorder::InternalError(name_ + ": a plan failed at set-up");
      }
      plans->push_back(step->plan);
    }
    session->Finish();
    *answers = Sorted(session->Answers());
    return Status();
  }

  /// Checks the class references against the ground truth and a serial
  /// replay of each class, and records the exact per-layer counts.
  Status CheckReferencesAndCount(
      const std::function<StatusOr<PlanRun>(size_t)>& replay) {
    int64_t emitted = 0, evaluations = 0, sound = 0, executed = 0;
    int64_t calls = 0, shipped = 0;
    for (size_t c = 0; c < classes_.size(); ++c) {
      const QueryClass& reference = classes_[c];
      if (!IsSubset(reference.answers, reference.truth)) {
        return planorder::InternalError(
            name_ + ": class " + std::to_string(c) +
            " returned an answer outside its ground truth");
      }
      PLANORDER_ASSIGN_OR_RETURN(PlanRun run, replay(c));
      if (run.plans != reference.plans || run.answers != reference.answers) {
        return planorder::InternalError(
            name_ + ": the replay of class " + std::to_string(c) +
            " differs from its session");
      }
      emitted += int64_t(run.plans.size());
      evaluations += run.evaluations;
      sound += run.sound;
      executed += run.executed;
      calls += run.source_calls;
      shipped += run.tuples_shipped;
    }
    exact_["core.evals_per_plan"] = double(evaluations) / double(emitted);
    exact_["reformulation.sound_frac"] = double(sound) / double(emitted);
    exact_["exec.source_calls_per_plan"] = double(calls) / double(executed);
    exact_["exec.tuples_shipped_per_plan"] = double(shipped) / double(executed);
    return Status();
  }

  /// Layer values both workloads compute the same way.
  void CommonLayerMetrics(const Tracer::Summary& trace,
                          const service::ServiceMetricsSnapshot& before,
                          const service::ServiceMetricsSnapshot& after,
                          int64_t ops, LayerValues* values) const {
    LayerValues& v = *values;
    for (const auto& [name, value] : exact_) v[name] = value;
    ServiceLayerMetrics(trace, "OpenSession", counters_.replay_evaluations,
                        before, after, ops, values);
    v["reformulation.buckets_ms_p50"] =
        SpanPercentile(trace, "BuildBuckets", 50.0, 1e-3);
    v["reformulation.estimate_ms_p50"] =
        SpanPercentile(trace, "EstimateWorkloadFromInstances", 50.0, 1e-3);
    v["reformulation.sound_us_per_plan"] = MeanUs(trace, "BuildSoundPlan");
    v["reformulation.exec_order_us_per_plan"] =
        MeanUs(trace, "FindExecutableOrder");
    v["exec.step_us_p50"] = SpanPercentile(trace, "NextStep", 50.0);
    v["exec.execute_ms_per_plan"] = MeanUs(trace, "ExecutePlan") * 1e-3;
    v["adaptive.store_save_ms_p50"] =
        SpanPercentile(trace, "PlanStore::Save", 50.0, 1e-3);
    const auto dedup = trace.self_us_by_name.find("step");
    const int64_t replay_steps = SpanCount(trace, "step");
    v["exec.dedup_us_per_plan"] =
        dedup == trace.self_us_by_name.end() || replay_steps == 0
            ? 0.0
            : dedup->second / double(replay_steps);
    const double from_plans = double(counters_.answers_from_plans);
    v["exec.new_answer_frac"] =
        from_plans > 0.0 ? double(counters_.new_answers) / from_plans : 0.0;
    const double steps = double(counters_.steps);
    v["exec.failed_plan_frac"] =
        steps > 0.0 ? double(counters_.failed_steps) / steps : 0.0;
    v["runtime.retries_per_plan"] =
        steps > 0.0 ? double(after.runtime.retries - before.runtime.retries) /
                          steps
                    : 0.0;
  }

  static double MeanUs(const Tracer::Summary& trace, const std::string& name) {
    const int64_t count = SpanCount(trace, name);
    return count > 0 ? SpanTotalUs(trace, name) / double(count) : 0.0;
  }

  const std::string name_;
  const int max_plans_;
  std::vector<QueryClass> classes_;
  /// Exact per-layer counts from the serial replays at set-up.
  LayerValues exact_;
  StepCounters counters_;
  /// Per client: the sessions it sampled for replay.
  std::vector<std::vector<Sampled>> sampled_;
};

/// Ground truth and reformulation of every class.
Status FillClasses(const exec::SyntheticDomain& domain,
                   const std::vector<datalog::ConjunctiveQuery>& queries,
                   std::vector<QueryClass>* classes) {
  for (const datalog::ConjunctiveQuery& query : queries) {
    QueryClass cls;
    cls.query = query;
    PLANORDER_ASSIGN_OR_RETURN(
        Tuples truth, datalog::EvaluateQuery(query, domain.schema_facts));
    cls.truth = Sorted(std::move(truth));
    PLANORDER_ASSIGN_OR_RETURN(
        cls.entry, Reformulate(query, domain.catalog, domain.source_facts));
    classes->push_back(std::move(cls));
  }
  return Status();
}

// ---------------------------------------------------------------------------

class ServiceHot : public PlanServiceWorkload {
 public:
  static constexpr int kClasses = 8;
  /// One pool thread: with two, a session waited on both being scheduled,
  /// and its first-result tail moved by a quarter between runs on a shared
  /// host.
  static constexpr int kPoolThreads = 1;

  ServiceHot() : PlanServiceWorkload("service-hot", /*max_plans=*/16) {}

  Status SetUp(uint64_t seed) {
    planorder::stats::WorkloadOptions options;
    options.query_length = 3;
    options.bucket_size = 16;
    options.overlap_rate = 0.4;
    options.regions_per_bucket = 16;
    options.seed = kHotDomainSeed;
    PLANORDER_ASSIGN_OR_RETURN(
        domain_, exec::BuildSyntheticDomain(options, /*num_answers=*/400));
    PLANORDER_ASSIGN_OR_RETURN(registry_, MakeRegistry(*domain_));
    planorder::cluster::SourceCacheOptions cache_options;
    cache_options.capacity_bytes = int64_t(1) << 30;  // whole working set
    source_cache_ =
        std::make_unique<planorder::cluster::SourceOperationCache>(cache_options);
    planorder::runtime::RuntimeOptions runtime_options;
    runtime_options.num_threads = kPoolThreads;
    runtime_options.time_dilation = 0.0;
    runtime_options.seed = DeriveSeed(seed, 1);
    runtime_options.source_cache = source_cache_.get();
    runtime_ = std::make_unique<planorder::runtime::SourceRuntime>(
        registry_.get(), runtime_options);
    executor_ = std::make_unique<TimedExecutor>(runtime_.get(), "runtime");
    planorder::cluster::ClusterOptions cluster_options;
    cluster_options.num_shards = 2;
    cluster_options.source_cache = source_cache_.get();
    cluster_ = std::make_unique<planorder::cluster::ShardedService>(
        &domain_->catalog, &domain_->source_facts, cluster_options,
        executor_.get());

    PLANORDER_RETURN_IF_ERROR(
        FillClasses(*domain_, HeadRotations(domain_->query, kClasses),
                    &classes_));
    for (auto& cache : replay_caches_) {
      cache = std::make_unique<service::ReformulationCache>(kClasses);
      for (const QueryClass& cls : classes_) cache->Insert(cls.entry);
    }
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(DeriveSeed(seed, 100 + uint64_t(c)));
    }
    // Warm-up: pass over the classes until a pass fetches nothing new, so
    // both caches are resident before anything is measured.
    for (int pass = 0; pass < 8; ++pass) {
      const int64_t misses_before = source_cache_->stats().misses;
      for (size_t c = 0; c < classes_.size(); ++c) {
        PLANORDER_RETURN_IF_ERROR(
            RunReference(c, &classes_[c].plans, &classes_[c].answers));
      }
      if (pass > 0 && source_cache_->stats().misses == misses_before) {
        return Status();
      }
    }
    return planorder::InternalError("service-hot: caches never settled");
  }

  int pool_threads() const override { return kPoolThreads; }
  /// Not p99: on a shared 4-vCPU host the p99 of ~1500 sessions moved by a
  /// third between runs (host scheduling, not the code). p95 leaves ~75
  /// samples above it.
  double tail_percentile() const override { return 95.0; }

  Status Verify() override {
    // Once warm, a session of a class repeats the class reference exactly.
    for (size_t c = 0; c < classes_.size(); ++c) {
      std::vector<ConcretePlan> plans;
      Tuples answers;
      PLANORDER_RETURN_IF_ERROR(RunReference(c, &plans, &answers));
      if (plans != classes_[c].plans || answers != classes_[c].answers) {
        return planorder::InternalError(
            "service-hot: two warm sessions of class " + std::to_string(c) +
            " differ");
      }
    }
    return CheckReferencesAndCount([this](size_t c) {
      return ReplayPlanSession(classes_[c].query, domain_->catalog,
                               domain_->source_facts,
                               ReplayCache{replay_caches_[0].get(), nullptr},
                               *executor_, source_cache_.get(), max_plans_);
    });
  }

  void BeginWindow() override {
    counters_.Reset();
    metrics_before_ = cluster_->MergedMetrics();
    cache_before_ = source_cache_->stats();
  }

  void LayerMetrics(const Tracer::Summary& trace, int64_t ops,
                    LayerValues* values) override {
    const service::ServiceMetricsSnapshot after = cluster_->MergedMetrics();
    CommonLayerMetrics(trace, metrics_before_, after, ops, values);
    const planorder::runtime::SourceResultCacheStats cache =
        source_cache_->stats();
    LayerValues& v = *values;
    const double hits = double(cache.hits - cache_before_.hits);
    const double misses = double(cache.misses - cache_before_.misses);
    v["cluster.srccache_hit_rate"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    const double per_op = ops > 0 ? 1.0 / double(ops) : 0.0;
    v["cluster.srccache_evictions_per_op"] =
        double(cache.evictions - cache_before_.evictions) * per_op;
    v["cluster.single_flight_waits_per_op"] =
        double(cache.single_flight_waits - cache_before_.single_flight_waits) *
        per_op;
  }

 protected:
  StatusOr<std::unique_ptr<service::Session>> Open(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits) override {
    return cluster_->OpenSession(query, limits);
  }

  size_t PickClass(int client) override {
    return size_t(rngs_[size_t(client)].UniformInt(0, kClasses - 1));
  }

  StatusOr<PlanRun> ReplayOne(int client, const Sampled& sampled,
                              const datalog::ConjunctiveQuery& query) override {
    (void)sampled;
    Tracer::BeginOp("replay", /*breakdown=*/true);
    int32_t span = Tracer::Push("ShardedService::ShardFor", "cluster");
    const int shard = cluster_->ShardFor(query);
    Tracer::Pop(span);
    (void)shard;
    auto run = ReplayPlanSession(
        query, domain_->catalog, domain_->source_facts,
        ReplayCache{replay_caches_[size_t(client)].get(), nullptr}, *executor_,
        source_cache_.get(), max_plans_);
    Tracer::EndOp();
    return run;
  }

 private:
  // Declaration order is teardown order reversed: the service borrows the
  // executor, runtime, cache and domain, so it is declared after them.
  std::unique_ptr<exec::SyntheticDomain> domain_;
  std::unique_ptr<exec::SourceRegistry> registry_;
  std::unique_ptr<planorder::cluster::SourceOperationCache> source_cache_;
  std::unique_ptr<planorder::runtime::SourceRuntime> runtime_;
  std::unique_ptr<TimedExecutor> executor_;
  std::unique_ptr<planorder::cluster::ShardedService> cluster_;
  std::unique_ptr<service::ReformulationCache> replay_caches_[2];
  std::vector<planorder::Rng> rngs_;
  service::ServiceMetricsSnapshot metrics_before_;
  planorder::runtime::SourceResultCacheStats cache_before_;
};

// ---------------------------------------------------------------------------

/// The 16 service-cold classes: the whole chain query under every head of
/// one variable or an ordered pair of distinct variables. All share one
/// body, so a hit costs about the same in every class and so does a miss:
/// the latencies form two tight modes, and the median and tail each fall
/// inside one. (Sub-chains of several widths would make a mode per width,
/// and the median could sit on the edge between two of them.)
std::vector<datalog::ConjunctiveQuery> HeadProjectionClasses(
    const datalog::ConjunctiveQuery& chain) {
  std::vector<datalog::Term> variables = {chain.body.front().args.front()};
  for (const datalog::Atom& atom : chain.body) {
    variables.push_back(atom.args.back());
  }
  std::vector<datalog::ConjunctiveQuery> classes;
  for (const datalog::Term& first : variables) {
    classes.push_back(WithHead(chain, {first}));
    for (const datalog::Term& second : variables) {
      if (second != first) classes.push_back(WithHead(chain, {first, second}));
    }
  }
  return classes;
}

class ServiceCold : public PlanServiceWorkload {
 public:
  static constexpr size_t kCacheCapacity = 8;
  /// Zipf exponent of the class popularity: about four sessions in five
  /// hit the cache, so the latency median sits among the hits instead of
  /// between hits and misses.
  static constexpr double kZipfTheta = 1.3;
  static constexpr uint64_t kPopularitySeed = 2002;

  ServiceCold() : PlanServiceWorkload("service-cold", /*max_plans=*/1) {}

  ~ServiceCold() override {
    service_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  Status SetUp(uint64_t seed) {
    planorder::stats::WorkloadOptions options;
    options.query_length = 3;
    options.bucket_size = 64;
    options.overlap_rate = 0.4;
    options.regions_per_bucket = 16;
    options.seed = kColdDomainSeed;
    PLANORDER_ASSIGN_OR_RETURN(
        domain_, exec::BuildSyntheticDomain(options, /*num_answers=*/200));
    PLANORDER_RETURN_IF_ERROR(
        FillClasses(*domain_, HeadProjectionClasses(domain_->query),
                    &classes_));

    // Popularity: rank r has weight r^-theta. Which class holds which rank
    // is part of the workload, not of the seed: answer sizes differ by
    // class, and a seed-drawn ranking would make the mix differ per seed.
    planorder::Rng rng(kPopularitySeed);
    std::vector<size_t> order(classes_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    double total = 0.0;
    for (size_t r = 0; r < order.size(); ++r) {
      total += 1.0 / std::pow(double(r + 1), kZipfTheta);
      cdf_.push_back({total, order[r]});
    }
    for (auto& entry : cdf_) entry.first /= total;
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(DeriveSeed(seed, 100 + uint64_t(c)));
    }

    dir_ = ".bench_build/tmp/service-cold-" + std::to_string(::getpid()) +
           "-" + std::to_string(instance_counter_++);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    store_ = std::make_unique<planorder::adaptive::PlanStore>(
        dir_ + "/service.planstore");
    for (int c = 0; c < clients(); ++c) {
      replay_stores_.push_back(std::make_unique<planorder::adaptive::PlanStore>(
          dir_ + "/replay-" + std::to_string(c) + ".planstore"));
    }
    set_oriented_ = exec::MakeSetOrientedExecutor(&domain_->source_facts);
    executor_ = std::make_unique<TimedExecutor>(set_oriented_.get(), "exec");
    service::ServiceOptions service_options;
    service_options.cache_capacity = kCacheCapacity;
    service_options.plan_store = store_.get();
    service_ = std::make_unique<service::QueryService>(
        &domain_->catalog, &domain_->source_facts, service_options,
        executor_.get());

    // Cold references: a cache-less service, one session per class.
    {
      service::ServiceOptions cold_options;
      cold_options.cache_capacity = 0;
      reference_service_ = std::make_unique<service::QueryService>(
          &domain_->catalog, &domain_->source_facts, cold_options);
      for (size_t c = 0; c < classes_.size(); ++c) {
        PLANORDER_RETURN_IF_ERROR(
            RunReference(c, &classes_[c].plans, &classes_[c].answers));
      }
      reference_service_.reset();
    }
    // Warm-up: sessions from the popularity distribution until the cache
    // has filled and evicted, as in the steady state.
    planorder::Rng warm(DeriveSeed(seed, 2));
    for (int i = 0; i < 2 * int(kCacheCapacity); ++i) {
      exec::Mediator::RunLimits limits;
      limits.max_plans = max_plans_;
      PLANORDER_ASSIGN_OR_RETURN(
          exec::MediatorResult result,
          service_->RunQuery(classes_[Draw(warm)].query, limits));
      (void)result;
    }
    return Status();
  }

  /// Not p99: about one session in five misses, so p95 lies well inside the
  /// misses' costs, where p99 lies in their own tail, which host noise
  /// moves most. p95 leaves ~90 samples above it.
  double tail_percentile() const override { return 95.0; }

  Status Verify() override {
    return CheckReferencesAndCount([this](size_t c) {
      service::ReformulationCache cache(kCacheCapacity);
      return ReplayPlanSession(classes_[c].query, domain_->catalog,
                               domain_->source_facts,
                               ReplayCache{&cache, replay_stores_[0].get()},
                               *executor_, nullptr, max_plans_);
    });
  }

  void BeginWindow() override {
    counters_.Reset();
    metrics_before_ = service_->Metrics();
  }

  void LayerMetrics(const Tracer::Summary& trace, int64_t ops,
                    LayerValues* values) override {
    const service::ServiceMetricsSnapshot after = service_->Metrics();
    CommonLayerMetrics(trace, metrics_before_, after, ops, values);
    LayerValues& v = *values;
    v["adaptive.store_saves_per_op"] =
        ops > 0 ? double(after.plan_store_saves - metrics_before_.plan_store_saves) /
                      double(ops)
                : 0.0;
    std::error_code error;
    const auto bytes = std::filesystem::file_size(store_->path(), error);
    v["adaptive.store_bytes"] = error ? 0.0 : double(bytes);
  }

 protected:
  StatusOr<std::unique_ptr<service::Session>> Open(
      const datalog::ConjunctiveQuery& query,
      const exec::Mediator::RunLimits& limits) override {
    service::QueryService& target =
        reference_service_ != nullptr ? *reference_service_ : *service_;
    return target.OpenSession(query, limits);
  }

  size_t PickClass(int client) override { return Draw(rngs_[size_t(client)]); }

  StatusOr<PlanRun> ReplayOne(int client, const Sampled& sampled,
                              const datalog::ConjunctiveQuery& query) override {
    // Untimed: a private cache in the state the session met — full, and
    // holding the session's class exactly when the session hit.
    service::ReformulationCache cache(kCacheCapacity);
    size_t other = sampled.cls;
    const size_t fillers = sampled.cache_hit ? kCacheCapacity - 1
                                             : kCacheCapacity;
    for (size_t i = 0; i < fillers; ++i) {
      other = (other + 1) % classes_.size();
      cache.Insert(classes_[other].entry);
    }
    if (sampled.cache_hit) cache.Insert(classes_[sampled.cls].entry);
    Tracer::BeginOp("replay", /*breakdown=*/true);
    auto run = ReplayPlanSession(
        query, domain_->catalog, domain_->source_facts,
        ReplayCache{&cache, replay_stores_[size_t(client)].get()}, *executor_,
        nullptr, max_plans_);
    Tracer::EndOp();
    return run;
  }

 private:
  size_t Draw(planorder::Rng& rng) const {
    const double u = rng.UniformReal(0.0, 1.0);
    for (const auto& [cumulative, cls] : cdf_) {
      if (u < cumulative) return cls;
    }
    return cdf_.back().second;
  }

  static inline std::atomic<int> instance_counter_{0};
  std::unique_ptr<exec::SyntheticDomain> domain_;
  std::vector<std::pair<double, size_t>> cdf_;
  std::vector<planorder::Rng> rngs_;
  std::string dir_;
  std::unique_ptr<planorder::adaptive::PlanStore> store_;
  std::vector<std::unique_ptr<planorder::adaptive::PlanStore>> replay_stores_;
  std::unique_ptr<exec::PlanExecutor> set_oriented_;
  std::unique_ptr<TimedExecutor> executor_;
  std::unique_ptr<service::QueryService> service_;
  /// Set only while the cold references are taken.
  std::unique_ptr<service::QueryService> reference_service_;
  service::ServiceMetricsSnapshot metrics_before_;
};

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeServiceHot(uint64_t seed) {
  auto workload = std::make_unique<ServiceHot>();
  PLANORDER_RETURN_IF_ERROR(workload->SetUp(seed));
  return std::unique_ptr<Workload>(std::move(workload));
}

StatusOr<std::unique_ptr<Workload>> MakeServiceCold(uint64_t seed) {
  auto workload = std::make_unique<ServiceCold>();
  PLANORDER_RETURN_IF_ERROR(workload->SetUp(seed));
  return std::unique_ptr<Workload>(std::move(workload));
}

}  // namespace planbench
