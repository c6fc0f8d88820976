/// ranked: ranked sessions through QueryService::OpenRankedSession, one
/// closed-loop client. Each session asks for the first 100 answers, best
/// weight first, over the plan space where any-k trails sort-all at k=100
/// (query length 3, bucket size 8; 200 answers here), with the
/// reformulation cache hot. The plans feed the any-k ranked merge instead of being
/// executed one by one.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anyk/brute_force.h"
#include "anyk/ranked_stream.h"
#include "base/rng.h"
#include "core/plan_space.h"
#include "core/streamer.h"
#include "reformulation/bucket.h"
#include "reformulation/executable_order.h"
#include "reformulation/rewriting.h"
#include "service/query_service.h"
#include "service_common.h"
#include "utility/measures.h"
#include "workload.h"

namespace planbench {
namespace {

namespace anyk = planorder::anyk;

constexpr int kClasses = 4;
constexpr size_t kTopK = 100;
constexpr int64_t kReplayEvery = 4;

/// Orderer decorator: forwards to `inner`, timing each of its Next() calls
/// as an "Orderer::Next" span, so the ranked stream's plan phase splits
/// into ordering and the rest.
class TimedOrderer : public planorder::core::Orderer {
 public:
  TimedOrderer(const planorder::stats::Workload* workload,
               planorder::utility::UtilityModel* model,
               planorder::core::Orderer* inner)
      : Orderer(workload, model), inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  void ReportDiscarded() override {
    Orderer::ReportDiscarded();
    inner_->ReportDiscarded();
  }

 protected:
  StatusOr<planorder::core::OrderedPlan> ComputeNext() override {
    ScopedSpan span("Orderer::Next", "core");
    return inner_->Next();
  }

 private:
  planorder::core::Orderer* inner_;
};

bool SameAnswers(const std::vector<anyk::RankedAnswer>& got,
                 const std::vector<anyk::RankedAnswer>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].tuple != want[i].tuple ||
        std::memcmp(&got[i].weight, &want[i].weight, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The brute-force oracle: every sound, executable rewriting of the query's
/// plan space joined naively, deduplicated and sorted by rank; its first k.
StatusOr<std::vector<anyk::RankedAnswer>> OracleTopK(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const datalog::Database& facts, const anyk::WeightOptions& weights) {
  PLANORDER_ASSIGN_OR_RETURN(planorder::reformulation::BucketResult buckets,
                             planorder::reformulation::BuildBuckets(query,
                                                                    catalog));
  std::vector<datalog::ConjunctiveQuery> rewritings;
  std::vector<size_t> odometer(buckets.buckets.size(), 0);
  while (true) {
    std::vector<datalog::SourceId> choice(odometer.size());
    for (size_t b = 0; b < odometer.size(); ++b) {
      choice[b] = buckets.buckets[b][odometer[b]];
    }
    PLANORDER_ASSIGN_OR_RETURN(
        auto plan,
        planorder::reformulation::BuildSoundPlan(query, catalog, choice));
    if (plan.has_value()) {
      auto ordered =
          planorder::reformulation::FindExecutableOrder(*plan, catalog);
      if (ordered.ok()) rewritings.push_back(ordered->rewriting);
    }
    size_t b = 0;
    for (; b < odometer.size(); ++b) {
      if (++odometer[b] < buckets.buckets[b].size()) break;
      odometer[b] = 0;
    }
    if (b == odometer.size()) break;
  }
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<anyk::RankedAnswer> all,
      anyk::BruteForceRankedUnion(rewritings, facts, weights));
  if (all.size() > kTopK) all.resize(kTopK);
  return all;
}

class Ranked : public Workload {
 public:
  Status SetUp(uint64_t seed) {
    planorder::stats::WorkloadOptions options;
    options.query_length = 3;
    options.bucket_size = 8;
    options.overlap_rate = 0.4;
    options.regions_per_bucket = 16;
    // The domain is fixed (BENCH_anyk.json's largest sweep point, with half
    // its answers); the run seed drives the answer weights and the request
    // stream. With all 400 answers a session's median moved by half between
    // runs on a shared host, far more than the other workloads did.
    options.seed = 31;
    PLANORDER_ASSIGN_OR_RETURN(
        domain_, exec::BuildSyntheticDomain(options, /*num_answers=*/200));
    stream_options_.weights.seed = DeriveSeed(seed, 3);
    stream_options_.weights.aggregation = anyk::Aggregation::kSum;
    stream_options_.max_plans = int(
        planorder::core::PlanSpace::FullSpace(domain_->workload).NumPlans());
    service_ = std::make_unique<service::QueryService>(
        &domain_->catalog, &domain_->source_facts, service::ServiceOptions{});
    classes_ = HeadRotations(domain_->query, kClasses);
    for (auto& cache : replay_caches_) {
      cache = std::make_unique<service::ReformulationCache>(kClasses);
    }
    for (const datalog::ConjunctiveQuery& query : classes_) {
      PLANORDER_ASSIGN_OR_RETURN(
          auto entry,
          Reformulate(query, domain_->catalog, domain_->source_facts));
      for (auto& cache : replay_caches_) cache->Insert(entry);
    }
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(DeriveSeed(seed, 100 + uint64_t(c)));
    }
    // Warm-up: one session per class makes the reformulation cache hot;
    // its answers are the class reference the oracle then checks.
    for (const datalog::ConjunctiveQuery& query : classes_) {
      SessionRun run;
      PLANORDER_RETURN_IF_ERROR(RunSession(query, &run));
      references_.push_back(std::move(run));
    }
    return Status();
  }

  /// One client, as on the service workloads: two moved the medians by a
  /// fifth between runs on a shared host.
  int clients() const override { return 1; }
  double tail_percentile() const override { return 95.0; }

  Status Verify() override {
    double open_plans = 0.0, witnesses = 0.0, answers = 0.0;
    int64_t evaluations = 0, considered = 0, sound = 0;
    for (size_t c = 0; c < classes_.size(); ++c) {
      PLANORDER_ASSIGN_OR_RETURN(
          std::vector<anyk::RankedAnswer> oracle,
          OracleTopK(classes_[c], domain_->catalog, domain_->source_facts,
                     stream_options_.weights));
      if (!SameAnswers(references_[c].answers, oracle)) {
        return planorder::InternalError(
            "ranked: class " + std::to_string(c) +
            " differs from BruteForceRankedUnion");
      }
      PLANORDER_ASSIGN_OR_RETURN(ReplayRun replay,
                                 ReplaySession(classes_[c], 0));
      if (!SameAnswers(replay.answers, oracle)) {
        return planorder::InternalError("ranked: the replay of class " +
                                        std::to_string(c) +
                                        " differs from its session");
      }
      open_plans += double(references_[c].stats.open_plans);
      witnesses += double(references_[c].stats.witnesses_expanded);
      answers += double(references_[c].stats.answers_emitted);
      evaluations += replay.evaluations;
      considered += replay.stats.plans_considered;
      sound += int64_t(replay.stats.sound_plans);
    }
    exact_["anyk.open_plans_per_op"] = open_plans / double(classes_.size());
    exact_["anyk.witnesses_per_answer"] = witnesses / answers;
    exact_["core.evals_per_plan"] = double(evaluations) / double(considered);
    exact_["reformulation.sound_frac"] = double(sound) / double(considered);
    return Status();
  }

  Status Op(int client, int64_t n, OpSample* sample) override {
    const size_t cls =
        size_t(rngs_[size_t(client)].UniformInt(0, kClasses - 1));
    const std::string suffix =
        "_c" + std::to_string(client) + "n" + std::to_string(n);
    SessionRun run;
    Tracer::BeginOp("session", /*breakdown=*/false);
    const Status status =
        RunSession(RenameVariables(classes_[cls], suffix), &run, sample);
    Tracer::EndOp();
    if (!status.ok()) {
      // Shed or refused: a failure of the system, not a wrong output.
      sample->failed = true;
      return Status();
    }
    if (!SameAnswers(run.answers, references_[cls].answers)) {
      return planorder::InternalError(
          "ranked: a session of class " + std::to_string(cls) +
          " returned other ranked answers than the oracle");
    }
    if (Tracer::Active() && n % kReplayEvery == 0) {
      sampled_[size_t(client)].push_back({cls, suffix});
    }
    return Status();
  }

  void BeginWindow() override {
    metrics_before_ = service_->Metrics();
    replay_evaluations_ = 0;
  }

  Status Replay(int client, double deadline_ms) override {
    for (const auto& [cls, suffix] : sampled_[size_t(client)]) {
      if (NowMs() >= deadline_ms) break;
      Tracer::BeginOp("replay", /*breakdown=*/true);
      auto replay =
          ReplaySession(RenameVariables(classes_[cls], suffix), client);
      Tracer::EndOp();
      if (!replay.ok()) return replay.status();
      replay_evaluations_ += replay->evaluations;
      if (!SameAnswers(replay->answers, references_[cls].answers)) {
        return planorder::InternalError(
            "ranked: a replayed session of class " + std::to_string(cls) +
            " emitted other answers than its session");
      }
    }
    return Status();
  }

  void LayerMetrics(const Tracer::Summary& trace, int64_t ops,
                    LayerValues* values) override {
    LayerValues& v = *values;
    for (const auto& [name, value] : exact_) v[name] = value;
    ServiceLayerMetrics(trace, "OpenRankedSession", replay_evaluations_,
                        metrics_before_, service_->Metrics(), ops, values);
    v["anyk.open_ms_p50"] =
        SpanPercentile(trace, "RankedAnswerStream::Open", 50.0, 1e-3);
    v["anyk.next_us_p50"] = SpanPercentile(trace, "NextRankedAnswer", 50.0);
  }

 private:
  struct SessionRun {
    std::vector<anyk::RankedAnswer> answers;
    anyk::RankedAnswerStream::Stats stats;
  };
  struct ReplayRun {
    std::vector<anyk::RankedAnswer> answers;
    anyk::RankedAnswerStream::Stats stats;
    int64_t evaluations = 0;
  };

  /// One ranked session through the service: open, the first k answers,
  /// finish. Fills `sample`'s timings when given.
  Status RunSession(const datalog::ConjunctiveQuery& query, SessionRun* run,
                    OpSample* sample = nullptr) {
    const double start_ms = NowMs();
    int32_t span = Tracer::Push("OpenRankedSession", "service");
    auto opened = service_->OpenRankedSession(query, stream_options_);
    Tracer::Pop(span);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<service::Session> session = std::move(*opened);
    while (run->answers.size() < kTopK) {
      span = Tracer::Push("NextRankedAnswer", "anyk");
      auto answer = session->NextRankedAnswer();
      Tracer::Pop(span);
      if (!answer.ok()) {
        if (answer.status().code() == planorder::StatusCode::kNotFound) break;
        return answer.status();
      }
      if (sample != nullptr && run->answers.empty()) {
        sample->first_ms = NowMs() - start_ms;
      }
      run->answers.push_back(std::move(*answer));
    }
    run->stats = *session->ranked_stats();
    span = Tracer::Push("Finish", "service");
    session->Finish();
    Tracer::Pop(span);
    if (sample != nullptr) sample->latency_ms = NowMs() - start_ms;
    return Status();
  }

  /// A ranked session replayed stage by stage: the reformulation front half,
  /// the measure and Streamer Create, the ranked stream's Open over a timing
  /// orderer decorator, and its first k Next calls.
  StatusOr<ReplayRun> ReplaySession(const datalog::ConjunctiveQuery& query,
                                    int client) {
    PLANORDER_ASSIGN_OR_RETURN(
        std::shared_ptr<const service::CachedReformulation> entry,
        ReplayReformulation(
            query, domain_->catalog, domain_->source_facts,
            ReplayCache{replay_caches_[size_t(client)].get(), nullptr}));
    const planorder::stats::Workload* workload = &entry->workload;
    int32_t span = Tracer::Push("MakeMeasure", "utility");
    auto model = planorder::utility::MakeMeasure(
        planorder::utility::MeasureKind::kCoverage, workload);
    Tracer::Pop(span);
    if (!model.ok()) return model.status();
    span = Tracer::Push("Orderer::Create", "core");
    auto orderer = planorder::core::StreamerOrderer::Create(
        workload, model->get(),
        {planorder::core::PlanSpace::FullSpace(*workload)});
    Tracer::Pop(span);
    if (!orderer.ok()) return orderer.status();
    // The decorator is the benchmark's own instrument: its set-up counts as
    // client time.
    span = Tracer::Push("TimedOrderer", "client");
    TimedOrderer timed(workload, model->get(), orderer->get());
    Tracer::Pop(span);
    span = Tracer::Push("RankedAnswerStream::Open", "anyk");
    auto opened = anyk::RankedAnswerStream::Open(
        domain_->catalog, entry->canonical.query, domain_->source_facts,
        entry->buckets.buckets, timed, stream_options_);
    Tracer::Pop(span);
    if (!opened.ok()) return opened.status();
    std::optional<anyk::RankedAnswerStream> stream(std::move(*opened));
    ReplayRun run;
    while (run.answers.size() < kTopK) {
      span = Tracer::Push("RankedAnswerStream::Next", "anyk");
      auto answer = stream->Next();
      Tracer::Pop(span);
      if (!answer.ok()) {
        if (answer.status().code() == planorder::StatusCode::kNotFound) break;
        return answer.status();
      }
      run.answers.push_back(std::move(*answer));
    }
    run.stats = stream->stats();
    run.evaluations = (*orderer)->plan_evaluations();
    // Freeing the per-plan DP tables and the orderer is session cost too
    // (the session pays it when it is destroyed).
    span = Tracer::Push("RankedAnswerStream::~RankedAnswerStream", "anyk");
    stream.reset();
    Tracer::Pop(span);
    span = Tracer::Push("Orderer::~Orderer", "core");
    orderer->reset();
    Tracer::Pop(span);
    return run;
  }

  std::unique_ptr<exec::SyntheticDomain> domain_;
  anyk::RankedAnswerStream::Options stream_options_;
  std::unique_ptr<service::QueryService> service_;
  std::vector<datalog::ConjunctiveQuery> classes_;
  std::vector<SessionRun> references_;
  std::unique_ptr<service::ReformulationCache> replay_caches_[2];
  std::vector<planorder::Rng> rngs_;
  std::vector<std::pair<size_t, std::string>> sampled_[2];
  LayerValues exact_;
  service::ServiceMetricsSnapshot metrics_before_;
  std::atomic<int64_t> replay_evaluations_{0};
};

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeRanked(uint64_t seed) {
  auto workload = std::make_unique<Ranked>();
  PLANORDER_RETURN_IF_ERROR(workload->SetUp(seed));
  return std::unique_ptr<Workload>(std::move(workload));
}

}  // namespace planbench
