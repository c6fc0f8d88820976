#include "sim/properties.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/adaptive_orderer.h"
#include "adaptive/drift_monitor.h"
#include "adaptive/observed_stats.h"
#include "anyk/brute_force.h"
#include "anyk/ranked_stream.h"
#include "base/mutex.h"
#include "base/rng.h"
#include "base/thread_annotations.h"
#include "cluster/sharded_service.h"
#include "cluster/source_cache.h"
#include "core/orderer_factory.h"
#include "core/plan_space.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "reference/enumerate.h"
#include "reference/orderer_factory.h"
#include "reformulation/executable_order.h"
#include "reformulation/rewriting.h"
#include "runtime/clock.h"
#include "runtime/retry_policy.h"
#include "runtime/source_runtime.h"
#include "service/shared_view.h"
#include "sim/oracle.h"

namespace planorder::sim {

namespace {

std::string PlanToString(const utility::ConcretePlan& plan) {
  std::string out = "[";
  for (size_t b = 0; b < plan.size(); ++b) {
    if (b > 0) out += " ";
    out += std::to_string(plan[b]);
  }
  return out + "]";
}

/// True when `x` is a positive power of two (the scales whose multiplication
/// is exact in binary floating point).
bool IsPowerOfTwo(double x) {
  if (x <= 0.0) return false;
  int exponent = 0;
  return std::frexp(x, &exponent) == 0.5;
}

StatusOr<std::vector<core::OrderedPlan>> RunAlgo(
    const stats::Workload& workload, utility::UtilityModel* model,
    const core::OrdererSpec& algo) {
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Orderer> orderer,
      core::MakeReferenceOrderer(algo, &workload, model,
                                 {core::PlanSpace::FullSpace(workload)}));
  return Drain(*orderer);
}

}  // namespace

AffineModel::AffineModel(const utility::UtilityModel* base,
                         const stats::Workload* workload, double scale,
                         double shift)
    : utility::UtilityModel(workload),
      base_(base),
      scale_(scale),
      shift_(shift) {
  PLANORDER_CHECK(scale > 0.0) << "affine transform must be increasing";
}

std::string AffineModel::name() const {
  return "affine(" + base_->name() + ")";
}

Interval AffineModel::Evaluate(utility::NodeSpan nodes,
                               const utility::ExecutionContext& ctx) const {
  const Interval u = base_->Evaluate(nodes, ctx);
  return Interval(scale_ * u.lo() + shift_, scale_ * u.hi() + shift_);
}

Status CheckMonotoneTransform(const stats::Workload& workload,
                              utility::MeasureKind kind,
                              const core::OrdererSpec& algo, double scale,
                              double shift, double tolerance) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> base,
                             utility::MakeMeasure(kind, &workload));
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<core::OrderedPlan> reference,
      RunAlgo(workload, base.get(), algo));

  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> inner,
                             utility::MakeMeasure(kind, &workload));
  AffineModel transformed(inner.get(), &workload, scale, shift);
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<core::OrderedPlan> emissions,
      RunAlgo(workload, &transformed, algo));

  if (emissions.size() != reference.size()) {
    std::ostringstream out;
    out << "monotone-transform: base run emitted " << reference.size()
        << " plans, transformed run " << emissions.size();
    return InternalError(out.str());
  }
  // shift != 0 rounds (binary addition is inexact), which can merge
  // near-ties; only the exact transform pins the whole emission sequence.
  const bool exact = shift == 0.0 && IsPowerOfTwo(scale);
  for (size_t i = 0; i < emissions.size(); ++i) {
    if (exact) {
      if (emissions[i].plan != reference[i].plan ||
          emissions[i].utility != scale * reference[i].utility) {
        std::ostringstream out;
        out.precision(17);
        out << "monotone-transform: exact transform u' = " << scale
            << " * u diverged at step " << i << ": base plan "
            << PlanToString(reference[i].plan) << " u="
            << reference[i].utility << ", transformed plan "
            << PlanToString(emissions[i].plan) << " u'="
            << emissions[i].utility;
        return InternalError(out.str());
      }
      continue;
    }
    const double mapped = (emissions[i].utility - shift) / scale;
    if (std::abs(mapped - reference[i].utility) >
        tolerance * std::max(1.0, std::abs(reference[i].utility))) {
      std::ostringstream out;
      out.precision(17);
      out << "monotone-transform: u' = " << scale << " * u + " << shift
          << " diverged at step " << i << ": base u="
          << reference[i].utility << ", transformed maps back to " << mapped;
      return InternalError(out.str());
    }
  }
  return OkStatus();
}

Status CheckRelabelInvariance(const stats::Workload& workload,
                              utility::MeasureKind kind,
                              const core::OrdererSpec& algo, uint64_t perm_seed,
                              double tolerance, uint64_t max_oracle_plans) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> base,
                             utility::MakeMeasure(kind, &workload));
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<core::OrderedPlan> reference,
      RunAlgo(workload, base.get(), algo));

  // Seeded Fisher-Yates per bucket: permuted[b][i] = original source index
  // now sitting at position i.
  Rng rng(runtime::MixHash(perm_seed));
  std::vector<std::vector<int>> perm(workload.num_buckets());
  std::vector<std::vector<stats::SourceStats>> buckets(workload.num_buckets());
  std::vector<double> domain_sizes(workload.num_buckets());
  for (int b = 0; b < workload.num_buckets(); ++b) {
    perm[b].resize(workload.bucket_size(b));
    for (int i = 0; i < workload.bucket_size(b); ++i) perm[b][i] = i;
    for (size_t i = perm[b].size(); i > 1; --i) {
      std::swap(perm[b][i - 1], perm[b][rng.UniformInt(0, int64_t(i) - 1)]);
    }
    for (int i = 0; i < workload.bucket_size(b); ++i) {
      buckets[b].push_back(workload.source(b, perm[b][i]));
    }
    domain_sizes[b] = workload.domain_size(b);
  }
  PLANORDER_ASSIGN_OR_RETURN(
      stats::Workload relabeled,
      stats::Workload::FromParts(std::move(buckets), workload.region_weights(),
                                 workload.access_overhead(),
                                 std::move(domain_sizes)));

  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> model,
                             utility::MakeMeasure(kind, &relabeled));
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<core::OrderedPlan> emissions,
      RunAlgo(relabeled, model.get(), algo));

  if (emissions.size() != reference.size()) {
    std::ostringstream out;
    out << "relabel: base run emitted " << reference.size()
        << " plans, relabeled run " << emissions.size();
    return InternalError(out.str());
  }
  for (size_t i = 0; i < emissions.size(); ++i) {
    if (std::abs(emissions[i].utility - reference[i].utility) >
        tolerance * std::max(1.0, std::abs(reference[i].utility))) {
      std::ostringstream out;
      out.precision(17);
      out << "relabel: utility sequence diverged at step " << i << ": base "
          << reference[i].utility << " (plan "
          << PlanToString(reference[i].plan) << "), relabeled "
          << emissions[i].utility << " (plan "
          << PlanToString(emissions[i].plan) << " in the permuted basis)";
      return InternalError(out.str());
    }
  }
  const core::PlanSpace full = core::PlanSpace::FullSpace(relabeled);
  if (full.NumPlans() <= max_oracle_plans) {
    Status oracle =
        VerifyExactOrder(relabeled, kind, {full}, emissions, tolerance);
    if (!oracle.ok()) {
      return InternalError("relabel: permuted-basis run failed the oracle: " +
                           std::string(oracle.message()));
    }
  }
  return OkStatus();
}

namespace {

Status CompareMediatorSteps(const exec::MediatorResult& reference,
                            const exec::MediatorResult& run,
                            const std::string& label) {
  if (run.steps.size() != reference.steps.size()) {
    std::ostringstream out;
    out << label << ": " << run.steps.size() << " steps vs "
        << reference.steps.size() << " in the serial reference";
    return InternalError(out.str());
  }
  for (size_t i = 0; i < run.steps.size(); ++i) {
    const exec::MediatorStep& a = reference.steps[i];
    const exec::MediatorStep& b = run.steps[i];
    if (b.failed) {
      std::ostringstream out;
      out << label << ": step " << i << " lost plan "
          << PlanToString(b.plan) << " to source failure (" +
                 b.failure_reason + ") despite transient-only faults and "
          << "ample retries";
      return InternalError(out.str());
    }
    if (a.plan != b.plan || a.sound != b.sound ||
        a.executable != b.executable ||
        a.answers_from_plan != b.answers_from_plan ||
        a.new_answers != b.new_answers ||
        a.total_answers != b.total_answers) {
      std::ostringstream out;
      out << label << ": step " << i << " diverged from the serial "
          << "reference: serial plan " << PlanToString(a.plan) << " ("
          << a.answers_from_plan << " answers, " << a.new_answers
          << " new, " << a.total_answers << " total), runtime plan "
          << PlanToString(b.plan) << " (" << b.answers_from_plan
          << " answers, " << b.new_answers << " new, " << b.total_answers
          << " total)";
      return InternalError(out.str());
    }
  }
  if (run.total_answers != reference.total_answers) {
    std::ostringstream out;
    out << label << ": " << run.total_answers << " distinct answers vs "
        << reference.total_answers << " in the serial reference";
    return InternalError(out.str());
  }
  return OkStatus();
}

}  // namespace

Status CheckRuntimeEquivalence(const Scenario& scenario) {
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::SyntheticDomain> domain,
      exec::BuildSyntheticDomain(scenario.MakeWorkloadOptions(),
                                 scenario.num_answers));

  PLANORDER_ASSIGN_OR_RETURN(
      exec::SourceRegistry registry,
      exec::BuildSourceRegistry(domain->catalog, domain->source_facts));

  exec::Mediator mediator(&domain->catalog, domain->query, domain->source_ids);
  const int max_plans =
      int(std::min<uint64_t>(scenario.NumPlans(), uint64_t{12}));

  auto run = [&](exec::PlanExecutor& executor)
      -> StatusOr<exec::MediatorResult> {
    PLANORDER_ASSIGN_OR_RETURN(
        std::unique_ptr<utility::UtilityModel> model,
        utility::MakeMeasure(utility::MeasureKind::kCoverage,
                             &domain->workload));
    PLANORDER_ASSIGN_OR_RETURN(
        std::unique_ptr<core::Orderer> orderer,
        core::MakeReferenceOrderer(
            {core::OrdererKind::kPi}, &domain->workload, model.get(),
            {core::PlanSpace::FullSpace(domain->workload)}));
    return mediator.Run(*orderer, {.max_plans = max_plans}, executor);
  };

  // Serial reference: the classic dependent-join mediator, no simulated
  // network at all.
  PLANORDER_ASSIGN_OR_RETURN(
      exec::MediatorResult reference,
      run(*exec::MakeDependentJoinExecutor(&registry)));

  auto runtime_run = [&](int threads, int max_partitions, double* elapsed_ms)
      -> StatusOr<exec::MediatorResult> {
    runtime::VirtualClock clock;
    runtime::RuntimeOptions options;
    options.num_threads = threads;
    options.max_partitions_per_call = max_partitions;
    options.seed = scenario.runtime_seed;
    options.time_dilation = 0.0;
    options.clock = &clock;
    options.default_model = scenario.MakeNetworkModel();
    options.retry.max_attempts = scenario.retry_max_attempts;
    runtime::SourceRuntime runtime(&registry, options);
    PLANORDER_ASSIGN_OR_RETURN(exec::MediatorResult result, run(runtime));
    if (elapsed_ms != nullptr) *elapsed_ms = clock.NowMs();
    return result;
  };

  // (a) Answer equivalence: at every thread count, with the runtime's
  // natural partitioning (one partition per pool worker), the step sequence
  // and answers must match the serial mediator exactly — transient faults
  // are absorbed by retries, concurrency changes nothing observable.
  std::vector<int> thread_counts = {1};
  thread_counts.insert(thread_counts.end(), scenario.thread_counts.begin(),
                       scenario.thread_counts.end());
  for (int threads : thread_counts) {
    PLANORDER_ASSIGN_OR_RETURN(
        exec::MediatorResult result,
        runtime_run(threads, /*max_partitions=*/0, /*elapsed_ms=*/nullptr));
    PLANORDER_RETURN_IF_ERROR(CompareMediatorSteps(
        reference, result,
        "runtime(threads=" + std::to_string(threads) + ")"));
  }

  // (b) Payload determinism: with single-partition calls the batch payloads
  // are identical at any thread count, so every hashed latency/fault draw —
  // and with them the accounting and the commutatively-accumulated virtual
  // elapsed time — must be bit-equal across thread counts. (Under natural
  // partitioning the payloads themselves vary with the pool size, so this
  // comparison is only meaningful with the partitioning pinned.)
  double base_elapsed_ms = 0.0;
  PLANORDER_ASSIGN_OR_RETURN(
      exec::MediatorResult base,
      runtime_run(/*threads=*/1, /*max_partitions=*/1, &base_elapsed_ms));
  PLANORDER_RETURN_IF_ERROR(
      CompareMediatorSteps(reference, base, "runtime(1 thread, 1 partition)"));
  for (int threads : scenario.thread_counts) {
    double elapsed_ms = 0.0;
    PLANORDER_ASSIGN_OR_RETURN(
        exec::MediatorResult result,
        runtime_run(threads, /*max_partitions=*/1, &elapsed_ms));
    if (elapsed_ms != base_elapsed_ms) {
      std::ostringstream out;
      out.precision(17);
      out << "runtime: virtual elapsed time depends on the thread count "
          << "despite identical call payloads: 1 thread -> "
          << base_elapsed_ms << " ms, " << threads << " threads -> "
          << elapsed_ms << " ms";
      return InternalError(out.str());
    }
    const exec::RuntimeAccounting& acct = result.runtime;
    if (acct.retries != base.runtime.retries ||
        acct.transient_failures != base.runtime.transient_failures ||
        acct.hedged_calls != base.runtime.hedged_calls ||
        acct.latency_ms_total != base.runtime.latency_ms_total) {
      std::ostringstream out;
      out.precision(17);
      out << "runtime: fault schedule depends on the thread count despite "
          << "identical call payloads: 1 thread -> (retries="
          << base.runtime.retries << " transient="
          << base.runtime.transient_failures << " hedged="
          << base.runtime.hedged_calls << " latency="
          << base.runtime.latency_ms_total << "), " << threads
          << " threads -> (retries=" << acct.retries << " transient="
          << acct.transient_failures << " hedged=" << acct.hedged_calls
          << " latency=" << acct.latency_ms_total << ")";
      return InternalError(out.str());
    }
  }

  // (c) Replay determinism: the same seed at the same thread count, with
  // genuinely concurrent partitions, reproduces the run bit-identically —
  // accounting, elapsed virtual time and all.
  if (!scenario.thread_counts.empty()) {
    const int threads = scenario.thread_counts.front();
    double first_ms = 0.0;
    double second_ms = 0.0;
    PLANORDER_ASSIGN_OR_RETURN(
        exec::MediatorResult first,
        runtime_run(threads, /*max_partitions=*/0, &first_ms));
    PLANORDER_ASSIGN_OR_RETURN(
        exec::MediatorResult second,
        runtime_run(threads, /*max_partitions=*/0, &second_ms));
    PLANORDER_RETURN_IF_ERROR(CompareMediatorSteps(
        first, second,
        "runtime replay(threads=" + std::to_string(threads) + ")"));
    if (first_ms != second_ms ||
        first.runtime.retries != second.runtime.retries ||
        first.runtime.transient_failures !=
            second.runtime.transient_failures ||
        first.runtime.hedged_calls != second.runtime.hedged_calls ||
        first.runtime.latency_ms_total != second.runtime.latency_ms_total) {
      std::ostringstream out;
      out.precision(17);
      out << "runtime: same seed, same thread count (" << threads
          << ") did not replay bit-identically: elapsed " << first_ms
          << " vs " << second_ms << " ms, retries " << first.runtime.retries
          << " vs " << second.runtime.retries << ", transient "
          << first.runtime.transient_failures << " vs "
          << second.runtime.transient_failures << ", latency "
          << first.runtime.latency_ms_total << " vs "
          << second.runtime.latency_ms_total;
      return InternalError(out.str());
    }
  }
  return OkStatus();
}

namespace {

std::string AnswerToString(const anyk::RankedAnswer& answer) {
  std::ostringstream out;
  out.precision(17);
  out << "(";
  for (size_t i = 0; i < answer.tuple.size(); ++i) {
    if (i > 0) out << ",";
    out << answer.tuple[i].ToString();
  }
  out << ") w=" << answer.weight;
  return out.str();
}

/// Element-wise byte equality of two ranked sequences (weights compare as
/// exact bits — the dyadic-rational contract makes that meaningful).
Status CompareRankedSequences(const std::vector<anyk::RankedAnswer>& reference,
                              const std::vector<anyk::RankedAnswer>& run,
                              const std::string& label) {
  if (run.size() != reference.size()) {
    std::ostringstream out;
    out << label << ": " << run.size() << " ranked answers vs "
        << reference.size() << " in the reference";
    return InternalError(out.str());
  }
  for (size_t i = 0; i < run.size(); ++i) {
    if (!(run[i] == reference[i])) {
      return InternalError(label + ": ranked emission diverged at position " +
                           std::to_string(i) + ": reference " +
                           AnswerToString(reference[i]) + ", run " +
                           AnswerToString(run[i]));
    }
  }
  return OkStatus();
}

}  // namespace

Status CheckRankedEmission(const Scenario& scenario,
                           uint64_t max_oracle_plans) {
  if (scenario.NumPlans() > max_oracle_plans) return OkStatus();
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::SyntheticDomain> domain,
      exec::BuildSyntheticDomain(scenario.MakeWorkloadOptions(),
                                 scenario.num_answers));

  anyk::RankedAnswerStream::Options options;
  options.weights.seed = scenario.weights_seed;
  options.weights.aggregation = scenario.ranked_aggregation;
  // Full plan budget: the stream's answer set must be the whole union, which
  // is what makes it comparable against the sort-everything oracle.
  options.max_plans = int(scenario.NumPlans());

  auto run = [&](const std::vector<std::vector<datalog::SourceId>>& ids,
                 const anyk::WeightOptions& weights)
      -> StatusOr<std::vector<anyk::RankedAnswer>> {
    PLANORDER_ASSIGN_OR_RETURN(
        std::unique_ptr<utility::UtilityModel> model,
        utility::MakeMeasure(utility::MeasureKind::kCoverage,
                             &domain->workload));
    PLANORDER_ASSIGN_OR_RETURN(
        std::unique_ptr<core::Orderer> orderer,
        core::MakeOrderer({core::OrdererKind::kIDrips}, &domain->workload,
                          model.get(),
                          {core::PlanSpace::FullSpace(domain->workload)}));
    anyk::RankedAnswerStream::Options run_options = options;
    run_options.weights = weights;
    PLANORDER_ASSIGN_OR_RETURN(
        anyk::RankedAnswerStream stream,
        anyk::RankedAnswerStream::Open(domain->catalog, domain->query,
                                       domain->source_facts, ids, *orderer,
                                       run_options));
    std::vector<anyk::RankedAnswer> answers;
    while (true) {
      auto next = stream.Next();
      if (!next.ok()) {
        if (next.status().code() == StatusCode::kNotFound) break;
        return next.status();
      }
      answers.push_back(*std::move(next));
    }
    return answers;
  };

  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<anyk::RankedAnswer> streamed,
      run(domain->source_ids, options.weights));

  // (a) The sort-everything oracle: every sound, executable rewriting of the
  // full Cartesian product, materialized by an independent backtracking join
  // and globally sorted. Plan order plays no role here at all.
  std::vector<datalog::ConjunctiveQuery> rewritings;
  const size_t num_buckets = domain->source_ids.size();
  std::vector<size_t> odometer(num_buckets, 0);
  while (true) {
    std::vector<datalog::SourceId> choice(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      choice[b] = domain->source_ids[b][odometer[b]];
    }
    PLANORDER_ASSIGN_OR_RETURN(
        auto plan,
        reformulation::BuildSoundPlan(domain->query, domain->catalog, choice));
    if (plan.has_value()) {
      auto ordered = reformulation::FindExecutableOrder(*plan,
                                                        domain->catalog);
      if (ordered.ok()) {
        rewritings.push_back((*plan).rewriting);
      } else if (ordered.status().code() != StatusCode::kFailedPrecondition) {
        return ordered.status();
      }
    }
    size_t b = 0;
    for (; b < num_buckets; ++b) {
      if (++odometer[b] < domain->source_ids[b].size()) break;
      odometer[b] = 0;
    }
    if (b == num_buckets) break;
  }
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<anyk::RankedAnswer> oracle,
      anyk::BruteForceRankedUnion(rewritings, domain->source_facts,
                                  options.weights));
  PLANORDER_RETURN_IF_ERROR(
      CompareRankedSequences(oracle, streamed, "ranked-oracle"));

  // (b) Monotone transform: scaling the tuple weights by a power of two is
  // exact, so every emission weight scales by exactly that factor and the
  // order does not budge.
  anyk::WeightOptions scaled = options.weights;
  scaled.scale = 4.0;
  PLANORDER_ASSIGN_OR_RETURN(std::vector<anyk::RankedAnswer> transformed,
                             run(domain->source_ids, scaled));
  std::vector<anyk::RankedAnswer> expected = streamed;
  for (anyk::RankedAnswer& answer : expected) answer.weight *= 4.0;
  PLANORDER_RETURN_IF_ERROR(
      CompareRankedSequences(expected, transformed, "ranked-monotone(x4)"));

  // (c) Relabeling invariance: weights are content hashes, so permuting each
  // bucket's sources permutes only which plan finds which witness — the
  // ranked union is untouched.
  Rng rng(runtime::MixHash(scenario.weights_seed ^ 0x524e4b44ull));
  std::vector<std::vector<datalog::SourceId>> permuted = domain->source_ids;
  for (std::vector<datalog::SourceId>& bucket : permuted) {
    for (size_t i = bucket.size(); i > 1; --i) {
      std::swap(bucket[i - 1], bucket[rng.UniformInt(0, int64_t(i) - 1)]);
    }
  }
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<anyk::RankedAnswer> relabeled,
      run(permuted, options.weights));
  return CompareRankedSequences(streamed, relabeled, "ranked-relabel");
}

namespace {

/// Catalog name of every (bucket, index) slot of `session`'s reformulation —
/// the coordinate system shared by the orderer's external-residency bits and
/// the cache's per-name IsResident view.
std::vector<std::vector<std::string>> SessionSourceNames(
    const datalog::Catalog& catalog, const service::Session& session) {
  const std::vector<std::vector<datalog::SourceId>>& buckets =
      session.reformulation().buckets.buckets;
  std::vector<std::vector<std::string>> names(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    names[b].reserve(buckets[b].size());
    for (datalog::SourceId id : buckets[b]) {
      names[b].push_back(catalog.source(id).name);
    }
  }
  return names;
}

/// Renders a session's distinct answers as sorted strings — the
/// interleaving-invariant fingerprint two runs must agree on byte-for-byte.
std::vector<std::string> SortedAnswerStrings(const service::Session& session) {
  std::vector<std::string> rendered;
  for (const std::vector<datalog::Term>& tuple : session.Answers()) {
    std::ostringstream out;
    for (const datalog::Term& term : tuple) out << term.ToString() << '|';
    rendered.push_back(out.str());
  }
  std::sort(rendered.begin(), rendered.end());
  return rendered;
}

/// Re-derives the utility `step` must have been emitted with: a fresh
/// kFailureCache model over the session's shared workload, an execution
/// context replaying the successful prefix plus exactly `residency` as the
/// external (cross-session) cache bits. Any mismatch beyond `tolerance`
/// means the orderer evaluated under a residency other than the one claimed
/// — the stale-utility bug.
Status VerifyStepUtility(const service::Session& session,
                         const std::vector<exec::MediatorStep>& prior,
                         const exec::MediatorStep& step,
                         const std::vector<std::vector<char>>& residency,
                         double tolerance, const std::string& label) {
  const stats::Workload& workload = session.reformulation().workload;
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<utility::UtilityModel> model,
      utility::MakeMeasure(utility::MeasureKind::kFailureCache, &workload));
  utility::ExecutionContext ctx(&workload);
  for (const exec::MediatorStep& p : prior) {
    if (p.sound && p.executable && !p.failed) ctx.MarkExecuted(p.plan);
  }
  for (size_t b = 0; b < residency.size(); ++b) {
    for (size_t i = 0; i < residency[b].size(); ++i) {
      if (residency[b][i] != 0) {
        ctx.SetExternallyCached(int(b), int(i), true);
      }
    }
  }
  const double expected = model->EvaluateConcrete(step.plan, ctx);
  if (!(std::fabs(expected - step.estimated_utility) <= tolerance)) {
    std::ostringstream out;
    out.precision(17);
    out << label << ": emitted utility " << step.estimated_utility
        << " != " << expected
        << " re-evaluated under the cache residency in effect when the step "
        << "was ordered (stale cross-session utility)";
    return InternalError(out.str());
  }
  return OkStatus();
}

/// The injected stale-utility bug, planted from outside the service: a
/// residency view that answers every poll of a source name with what that
/// name's first poll answered. Sessions poll once at open and again before
/// every step, and the property opens every session before any step, so
/// each session keeps ordering under the open-time cache state. Pass 2
/// polls from concurrent client threads, hence the lock.
class FrozenView : public service::SharedOperationView {
 public:
  explicit FrozenView(const cluster::SourceOperationCache* cache)
      : cache_(cache) {}

  bool IsResident(const std::string& source_name) const override {
    MutexLock lock(mu_);
    auto [it, first_poll] = first_answer_.try_emplace(source_name, false);
    if (first_poll) it->second = cache_->IsResident(source_name);
    return it->second;
  }

 private:
  const cluster::SourceOperationCache* cache_;
  mutable Mutex mu_;
  mutable std::map<std::string, bool> first_answer_ GUARDED_BY(mu_);
};

}  // namespace

Status CheckMultiSession(const Scenario& scenario, double tolerance) {
  // Answer invariance requires every session to drain its *full* plan space:
  // under a truncated budget the cache-dependent plan order would select
  // different plan subsets per interleaving. Keep the full drain affordable.
  if (scenario.NumPlans() > 200) return OkStatus();

  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::SyntheticDomain> domain,
      exec::BuildSyntheticDomain(scenario.MakeWorkloadOptions(),
                                 scenario.num_answers));
  PLANORDER_ASSIGN_OR_RETURN(
      exec::SourceRegistry registry,
      exec::BuildSourceRegistry(domain->catalog, domain->source_facts));

  const int num_sessions = std::max(2, std::min(scenario.num_sessions, 8));
  exec::Mediator::RunLimits limits;
  limits.max_plans = int(scenario.NumPlans());

  struct Fixture {
    runtime::VirtualClock clock;
    cluster::SourceOperationCache cache;
    FrozenView frozen{&cache};
    std::unique_ptr<runtime::SourceRuntime> runtime;
    std::unique_ptr<cluster::ShardedService> service;
  };
  auto make_fixture = [&]() -> std::unique_ptr<Fixture> {
    auto fx = std::make_unique<Fixture>();
    runtime::RuntimeOptions ropts;
    ropts.num_threads = 2;
    ropts.seed = scenario.runtime_seed;
    ropts.time_dilation = 0.0;
    ropts.clock = &fx->clock;
    ropts.default_model = scenario.MakeNetworkModel();
    ropts.retry.max_attempts = scenario.retry_max_attempts;
    ropts.source_cache = &fx->cache;
    fx->runtime = std::make_unique<runtime::SourceRuntime>(&registry, ropts);

    cluster::ClusterOptions copts;
    copts.num_shards = std::max(1, std::min(scenario.num_shards, 8));
    if (scenario.multi_inject_stale) {
      // Left out of ClusterOptions::source_cache, which would install the
      // live cache as every shard's view over the frozen one.
      copts.shard.source_cache_view = &fx->frozen;
    } else {
      copts.source_cache = &fx->cache;
    }
    copts.shard.measure = utility::MeasureKind::kFailureCache;
    // All sessions share one query class and therefore one home shard; size
    // that shard to admit every client with no shedding or waiting.
    copts.shard.max_active_sessions = num_sessions;
    copts.shard.max_queued_admissions = num_sessions;
    copts.shard.admission_timeout_ms = 0.0;
    copts.shard.clock = &fx->clock;
    fx->service = std::make_unique<cluster::ShardedService>(
        &domain->catalog, &domain->source_facts, copts, fx->runtime.get());
    return fx;
  };

  // --- Pass 1: serial round-robin interleaving with the view-read oracle.
  // Single-threaded, so the residency read here is exactly the residency the
  // session's per-step refresh applies inside the following NextStep call.
  struct SerialRun {
    std::unique_ptr<service::Session> session;
    std::vector<std::vector<std::string>> names;
    std::vector<exec::MediatorStep> steps;
    std::vector<std::string> answers;
    bool done = false;
  };
  std::unique_ptr<Fixture> serial = make_fixture();
  std::vector<SerialRun> runs(static_cast<size_t>(num_sessions));
  for (SerialRun& run : runs) {
    PLANORDER_ASSIGN_OR_RETURN(run.session,
                               serial->service->OpenSession(domain->query,
                                                            limits));
    run.names = SessionSourceNames(domain->catalog, *run.session);
  }
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (int s = 0; s < num_sessions; ++s) {
      SerialRun& run = runs[size_t(s)];
      if (run.done) continue;
      all_done = false;
      std::vector<std::vector<char>> residency(run.names.size());
      for (size_t b = 0; b < run.names.size(); ++b) {
        residency[b].assign(run.names[b].size(), 0);
        for (size_t i = 0; i < run.names[b].size(); ++i) {
          residency[b][i] = serial->cache.IsResident(run.names[b][i]) ? 1 : 0;
        }
      }
      StatusOr<exec::MediatorStep> step = run.session->NextStep();
      if (!step.ok()) {
        if (step.status().code() != StatusCode::kNotFound) {
          return step.status();
        }
        run.done = true;
        run.answers = SortedAnswerStrings(*run.session);
        continue;
      }
      PLANORDER_RETURN_IF_ERROR(VerifyStepUtility(
          *run.session, run.steps, *step, residency, tolerance,
          "multi-serial session " + std::to_string(s) + " step " +
              std::to_string(run.steps.size())));
      run.steps.push_back(*std::move(step));
    }
  }

  // --- Pass 2: free interleaving, one client thread per session. Answers
  // must match the serial replay byte-for-byte, and every step's utility
  // must be consistent with the residency the session ranked it under, read
  // by the session's own client thread right after the step
  // (Session::external_residency).
  std::unique_ptr<Fixture> parallel = make_fixture();
  struct ParallelRun {
    std::unique_ptr<service::Session> session;
    std::vector<exec::MediatorStep> steps;
    std::vector<std::vector<std::vector<char>>> residency;  // per step
    Status status;
  };
  std::vector<ParallelRun> par(static_cast<size_t>(num_sessions));
  for (ParallelRun& run : par) {
    PLANORDER_ASSIGN_OR_RETURN(run.session,
                               parallel->service->OpenSession(domain->query,
                                                              limits));
  }
  std::vector<std::thread> clients;
  clients.reserve(size_t(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    clients.emplace_back([&par, s] {
      ParallelRun& run = par[size_t(s)];
      while (true) {
        StatusOr<exec::MediatorStep> step = run.session->NextStep();
        if (!step.ok()) {
          if (step.status().code() != StatusCode::kNotFound) {
            run.status = step.status();
          }
          return;
        }
        run.steps.push_back(*std::move(step));
        run.residency.push_back(run.session->external_residency());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int s = 0; s < num_sessions; ++s) {
    ParallelRun& run = par[size_t(s)];
    PLANORDER_RETURN_IF_ERROR(run.status);
    const std::vector<std::string> answers = SortedAnswerStrings(*run.session);
    if (answers != runs[size_t(s)].answers) {
      std::ostringstream out;
      out << "multi-parallel session " << s << ": " << answers.size()
          << " distinct answers differ from the serial replay ("
          << runs[size_t(s)].answers.size()
          << ") — interleaving changed the answer set";
      return InternalError(out.str());
    }
    for (size_t k = 0; k < run.steps.size(); ++k) {
      PLANORDER_RETURN_IF_ERROR(VerifyStepUtility(
          *run.session, {run.steps.begin(), run.steps.begin() + long(k)},
          run.steps[k], run.residency[k], tolerance,
          "multi-parallel session " + std::to_string(s) + " step " +
              std::to_string(k)));
    }
  }
  return OkStatus();
}

namespace {

/// The drift world: which (bucket, index) coordinates drift, and by how
/// much. Derived once from drift_seed so the adaptive run, every parallel
/// re-run and the oracle feed identical observation streams.
struct DriftWorld {
  std::vector<std::vector<std::string>> names;
  std::vector<std::vector<char>> drifted;
  utility::MeasureKind kind = utility::MeasureKind::kAdditive;
};

DriftWorld MakeDriftWorld(const Scenario& scenario,
                          const stats::Workload& workload) {
  DriftWorld world;
  world.names.resize(size_t(workload.num_buckets()));
  world.drifted.resize(size_t(workload.num_buckets()));
  for (int b = 0; b < workload.num_buckets(); ++b) {
    for (int i = 0; i < workload.bucket_size(b); ++i) {
      world.names[size_t(b)].push_back("b" + std::to_string(b) + "_s" +
                                       std::to_string(i));
    }
    world.drifted[size_t(b)].assign(size_t(workload.bucket_size(b)), 0);
  }
  Rng rng(scenario.drift_seed);
  // Cardinality-sensitive measures only: drifting cardinality under pure
  // coverage would never change the ranking, making the property vacuous.
  const utility::MeasureKind kinds[] = {
      utility::MeasureKind::kAdditive, utility::MeasureKind::kCost2,
      utility::MeasureKind::kFailureNoCache, utility::MeasureKind::kMonetary};
  world.kind = kinds[rng.UniformInt(0, 3)];
  for (int k = 0; k < scenario.drift_sources; ++k) {
    const int b = int(rng.UniformInt(0, workload.num_buckets() - 1));
    const int i = int(rng.UniformInt(0, workload.bucket_size(b) - 1));
    world.drifted[size_t(b)][size_t(i)] = 1;
  }
  return world;
}

/// One synthetic execution of `plan` at emission index `step`: each of its
/// sources completes one call shipping its *true* (possibly drifted)
/// cardinality. Integer-rounded once here; every consumer sees the same
/// observation stream.
void FeedDriftObservations(const Scenario& scenario,
                           const stats::Workload& workload,
                           const DriftWorld& world, int step,
                           const core::ConcretePlan& plan,
                           adaptive::ObservedStats& observed) {
  for (size_t b = 0; b < plan.size(); ++b) {
    const int i = plan[b];
    const stats::SourceStats s = workload.source(int(b), i);
    double card = s.cardinality;
    if (step >= scenario.drift_step && world.drifted[b][size_t(i)]) {
      card *= scenario.drift_factor;
    }
    runtime::SourceObservation obs;
    obs.rows = std::max<int64_t>(0, std::llround(card));
    obs.attempts = 1;
    obs.failures = 0;
    obs.latency_micros =
        std::max<int64_t>(0, std::llround(s.transmission_cost * card * 1000.0));
    obs.call_failed = false;
    observed.RecordFetch(world.names[b][size_t(i)], obs);
  }
  observed.FoldWindow();
}

adaptive::DriftOptions MakeDriftOptions(const Scenario& scenario) {
  adaptive::DriftOptions drift;
  drift.band = scenario.drift_band;
  drift.min_calls = 1;
  return drift;
}

/// Drains the adaptive orderer under the drift feedback loop: after every
/// emission the emitted plan's observations are recorded and folded, so the
/// next Next() sees the updated generation.
StatusOr<std::vector<core::OrderedPlan>> RunAdaptiveDrift(
    const Scenario& scenario, const stats::Workload& workload,
    const DriftWorld& world, int64_t* rebuilds_out) {
  adaptive::ObservedStats observed(
      adaptive::ObservedStatsOptions{scenario.drift_decay});
  adaptive::AdaptiveOptions options;
  options.inner = core::OrdererKind::kIDrips;
  options.measure = world.kind;
  options.drift = MakeDriftOptions(scenario);
  // The injected stale-stats bug: the orderer never sees the observations
  // it is fed, so it never re-ranks. With nothing observed yet its first
  // ranking is the same either way (BlendWorkload over no observations is
  // an exact copy of the estimates).
  PLANORDER_ASSIGN_OR_RETURN(
      std::unique_ptr<adaptive::AdaptiveOrderer> orderer,
      adaptive::AdaptiveOrderer::Create(
          &workload, world.names,
          scenario.drift_inject_stale ? nullptr : &observed, options));
  std::vector<core::OrderedPlan> emissions;
  while (true) {
    StatusOr<core::OrderedPlan> next = orderer->Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    FeedDriftObservations(scenario, workload, world, int(emissions.size()),
                          next->plan, observed);
    emissions.push_back(std::move(*next));
  }
  if (rebuilds_out != nullptr) *rebuilds_out = orderer->rebuilds();
  return emissions;
}

}  // namespace

Status CheckDriftRerank(const Scenario& scenario, double tolerance) {
  PLANORDER_ASSIGN_OR_RETURN(
      stats::Workload workload,
      stats::Workload::Generate(scenario.MakeWorkloadOptions()));
  // The oracle re-ranks with a fresh O(plans^2)-ish IDrips build per
  // divergence and brute-forces maximality per step; keep the space small.
  if (scenario.NumPlans() > 80) return OkStatus();
  const DriftWorld world = MakeDriftWorld(scenario, workload);

  // The system under test: the adaptive orderer inside its feedback loop.
  int64_t adaptive_rebuilds = 0;
  PLANORDER_ASSIGN_OR_RETURN(
      std::vector<core::OrderedPlan> emissions,
      RunAdaptiveDrift(scenario, workload, world, &adaptive_rebuilds));

  // (a)+(b) The rebuild-from-observed-stats oracle: replay the same
  // observation schedule against ITS OWN emissions, re-deciding divergence
  // with the pure predicate and re-ranking from scratch (fresh inner
  // orderer, executed prefix preloaded, emitted plans skipped) every time
  // the statistics leave the band. The oracle always reacts — under the
  // injected stale-stats bug it diverges from the system and the property
  // fails, which is the point.
  adaptive::ObservedStats observed(
      adaptive::ObservedStatsOptions{scenario.drift_decay});
  const adaptive::DriftOptions drift = MakeDriftOptions(scenario);
  std::vector<core::ConcretePlan> executed;
  std::set<core::ConcretePlan> emitted;
  std::unique_ptr<stats::Workload> blended;
  std::unique_ptr<utility::UtilityModel> model;
  std::unique_ptr<core::Orderer> inner;
  int64_t built_generation = -1;
  int64_t oracle_rebuilds = -1;  // first build is not a re-rank

  auto rebuild = [&]() -> Status {
    PLANORDER_ASSIGN_OR_RETURN(
        stats::Workload b,
        adaptive::BlendWorkload(workload, world.names, observed));
    blended = std::make_unique<stats::Workload>(std::move(b));
    PLANORDER_ASSIGN_OR_RETURN(model,
                               utility::MakeMeasure(world.kind, blended.get()));
    PLANORDER_ASSIGN_OR_RETURN(
        inner, core::MakeOrderer({core::OrdererKind::kIDrips}, blended.get(),
                                 model.get(),
                                 {core::PlanSpace::FullSpace(*blended)}));
    for (const core::ConcretePlan& plan : executed) {
      PLANORDER_RETURN_IF_ERROR(inner->PreloadExecuted(plan));
    }
    built_generation = observed.generation();
    ++oracle_rebuilds;
    return OkStatus();
  };
  PLANORDER_RETURN_IF_ERROR(rebuild());

  std::vector<core::OrderedPlan> oracle_emissions;
  while (true) {
    if (observed.generation() != built_generation &&
        adaptive::StatsDiverged(*blended, world.names, observed, drift)) {
      PLANORDER_RETURN_IF_ERROR(rebuild());
    }
    StatusOr<core::OrderedPlan> next = inner->Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    if (!emitted.insert(next->plan).second) {
      inner->ReportDiscarded();  // replayed pre-rebuild emission
      continue;
    }

    // (b) Conditional maximality under this generation's blended stats:
    // fresh context, executed prefix only.
    utility::ExecutionContext fresh(blended.get());
    for (const core::ConcretePlan& plan : executed) fresh.MarkExecuted(plan);
    const double recomputed = model->EvaluateConcrete(next->plan, fresh);
    if (std::abs(recomputed - next->utility) >
        tolerance * std::max(1.0, std::abs(recomputed))) {
      std::ostringstream out;
      out.precision(17);
      out << "drift-oracle step " << oracle_emissions.size() << " plan "
          << PlanToString(next->plan) << " reported utility "
          << next->utility << " but a fresh conditional evaluation gives "
          << recomputed;
      return InternalError(out.str());
    }
    for (const core::ConcretePlan& other :
         core::EnumeratePlans(core::PlanSpace::FullSpace(*blended))) {
      if (emitted.count(other) != 0) continue;
      const double u = model->EvaluateConcrete(other, fresh);
      if (u - recomputed > tolerance * std::max(1.0, std::abs(u))) {
        std::ostringstream out;
        out.precision(17);
        out << "drift-oracle step " << oracle_emissions.size()
            << " emitted plan " << PlanToString(next->plan) << " at utility "
            << recomputed << " but remaining plan " << PlanToString(other)
            << " is strictly better at " << u
            << " under the blended statistics";
        return InternalError(out.str());
      }
    }

    FeedDriftObservations(scenario, workload, world,
                          int(oracle_emissions.size()), next->plan, observed);
    executed.push_back(next->plan);
    oracle_emissions.push_back(std::move(*next));
  }

  // (a) Byte-for-byte agreement, emission by emission.
  const size_t steps = std::min(emissions.size(), oracle_emissions.size());
  for (size_t i = 0; i < steps; ++i) {
    if (emissions[i].plan != oracle_emissions[i].plan ||
        emissions[i].utility != oracle_emissions[i].utility) {
      std::ostringstream out;
      out.precision(17);
      out << "drift step " << i << ": adaptive orderer emitted "
          << PlanToString(emissions[i].plan) << " u=" << emissions[i].utility
          << " but the rebuild-from-observed-stats oracle emitted "
          << PlanToString(oracle_emissions[i].plan)
          << " u=" << oracle_emissions[i].utility
          << " (stale statistics survived the divergence band?)";
      return InternalError(out.str());
    }
  }
  if (emissions.size() != oracle_emissions.size()) {
    std::ostringstream out;
    out << "drift: adaptive orderer emitted " << emissions.size()
        << " plans, the oracle " << oracle_emissions.size();
    return InternalError(out.str());
  }
  if (adaptive_rebuilds != oracle_rebuilds) {
    std::ostringstream out;
    out << "drift: adaptive orderer re-ranked " << adaptive_rebuilds
        << " times, the oracle " << oracle_rebuilds
        << " — divergence decisions disagree";
    return InternalError(out.str());
  }
  return OkStatus();
}

}  // namespace planorder::sim
