#include "sim/scenario.h"

#include <cmath>
#include <sstream>

#include "base/rng.h"
#include "runtime/retry_policy.h"

namespace planorder::sim {

namespace {

using utility::MeasureKind;

/// Deterministic Fisher-Yates (std::shuffle is implementation-defined, which
/// would break cross-platform replay).
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.UniformInt(0, int64_t(i) - 1)]);
  }
}

std::string JoinInts(const std::vector<int>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out;
}

}  // namespace

std::vector<core::OrdererKind> AllAlgoKinds() {
  return {core::OrdererKind::kGreedy, core::OrdererKind::kIDrips,
          core::OrdererKind::kIDripsRebuild, core::OrdererKind::kStreamer,
          core::OrdererKind::kPi};
}

std::vector<MeasureKind> AllMeasureKinds() {
  return {MeasureKind::kAdditive,       MeasureKind::kCost2UniformAlpha,
          MeasureKind::kCost2,          MeasureKind::kFailureNoCache,
          MeasureKind::kFailureCache,   MeasureKind::kMonetary,
          MeasureKind::kMonetaryCache,  MeasureKind::kCoverage};
}

namespace {

StatusOr<MeasureKind> MeasureKindFromName(const std::string& name) {
  for (MeasureKind kind : AllMeasureKinds()) {
    if (utility::MeasureKindName(kind) == name) return kind;
  }
  return InvalidArgumentError("unknown measure '" + name + "'");
}

}  // namespace

stats::WorkloadOptions Scenario::MakeWorkloadOptions() const {
  stats::WorkloadOptions options;
  options.query_length = query_length;
  options.bucket_size = bucket_size;
  options.overlap_rate = overlap_rate;
  options.regions_per_bucket = regions_per_bucket;
  if (uniform_alpha) {
    options.alpha_min = 0.3;
    options.alpha_max = 0.3;
  }
  options.seed = workload_seed;
  return options;
}

runtime::NetworkModel Scenario::MakeNetworkModel() const {
  runtime::NetworkModel model;
  model.base_latency_ms = base_latency_ms;
  model.per_binding_latency_ms = per_binding_latency_ms;
  model.per_tuple_latency_ms = per_tuple_latency_ms;
  model.latency_jitter = latency_jitter;
  model.transient_failure_rate = transient_failure_rate;
  model.hedge_delay_ms = hedge_delay_ms;
  return model;
}

uint64_t Scenario::NumPlans() const {
  uint64_t plans = 1;
  for (int b = 0; b < query_length; ++b) plans *= uint64_t(bucket_size);
  return plans;
}

std::string Scenario::Summary() const {
  std::ostringstream out;
  out << "seed=" << base_seed << " step=" << step << " ql=" << query_length
      << " bs=" << bucket_size << " plans=" << NumPlans()
      << " measures=" << measures.size() << " algos=" << algos.size()
      << " threads=" << JoinInts(thread_counts)
      << " runtime=" << (check_runtime ? 1 : 0)
      << " ranked=" << (check_ranked ? 1 : 0)
      << " multi=" << (check_multi ? 1 : 0)
      << " drift=" << (check_drift ? 1 : 0);
  return out.str();
}

std::string Scenario::Serialize() const {
  std::ostringstream out;
  out << "base_seed=" << base_seed << " step=" << step;
  out << " query_length=" << query_length << " bucket_size=" << bucket_size;
  out << " overlap_rate=" << overlap_rate
      << " regions_per_bucket=" << regions_per_bucket;
  out << " uniform_alpha=" << (uniform_alpha ? 1 : 0)
      << " workload_seed=" << workload_seed;
  out << " measures=";
  for (size_t i = 0; i < measures.size(); ++i) {
    if (i > 0) out << ",";
    out << utility::MeasureKindName(measures[i]);
  }
  out << " algos=";
  for (size_t i = 0; i < algos.size(); ++i) {
    if (i > 0) out << ",";
    out << core::OrdererKindName(algos[i]);
  }
  out << " thread_counts=" << JoinInts(thread_counts);
  out << " check_oracle=" << (check_oracle ? 1 : 0)
      << " check_monotone=" << (check_monotone ? 1 : 0)
      << " check_relabel=" << (check_relabel ? 1 : 0)
      << " check_runtime=" << (check_runtime ? 1 : 0)
      << " check_ranked=" << (check_ranked ? 1 : 0)
      << " check_multi=" << (check_multi ? 1 : 0);
  out << " num_sessions=" << num_sessions << " num_shards=" << num_shards
      << " multi_inject_stale=" << (multi_inject_stale ? 1 : 0);
  out << " weights_seed=" << weights_seed
      << " ranked_aggregation=" << anyk::AggregationName(ranked_aggregation);
  out << " num_answers=" << num_answers << " runtime_seed=" << runtime_seed;
  out << " base_latency_ms=" << base_latency_ms
      << " per_binding_latency_ms=" << per_binding_latency_ms
      << " per_tuple_latency_ms=" << per_tuple_latency_ms
      << " latency_jitter=" << latency_jitter
      << " transient_failure_rate=" << transient_failure_rate
      << " hedge_delay_ms=" << hedge_delay_ms
      << " retry_max_attempts=" << retry_max_attempts;
  out << " check_drift=" << (check_drift ? 1 : 0)
      << " drift_step=" << drift_step << " drift_factor=" << drift_factor
      << " drift_band=" << drift_band << " drift_decay=" << drift_decay
      << " drift_sources=" << drift_sources << " drift_seed=" << drift_seed
      << " drift_inject_stale=" << (drift_inject_stale ? 1 : 0);
  return out.str();
}

StatusOr<Scenario> Scenario::Deserialize(const std::string& line) {
  Scenario s;
  s.measures.clear();
  s.algos.clear();
  s.thread_counts.clear();
  std::istringstream in(line);
  std::string token;
  bool saw_any_token = false;
  auto split_list = [](const std::string& csv) {
    std::vector<std::string> items;
    std::string item;
    std::istringstream stream(csv);
    while (std::getline(stream, item, ',')) {
      if (!item.empty()) items.push_back(item);
    }
    return items;
  };
  while (in >> token) {
    saw_any_token = true;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("malformed scenario token '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "base_seed") {
        s.base_seed = std::stoull(value);
      } else if (key == "step") {
        s.step = std::stoi(value);
      } else if (key == "query_length") {
        s.query_length = std::stoi(value);
      } else if (key == "bucket_size") {
        s.bucket_size = std::stoi(value);
      } else if (key == "overlap_rate") {
        s.overlap_rate = std::stod(value);
      } else if (key == "regions_per_bucket") {
        s.regions_per_bucket = std::stoi(value);
      } else if (key == "uniform_alpha") {
        s.uniform_alpha = value != "0";
      } else if (key == "workload_seed") {
        s.workload_seed = std::stoull(value);
      } else if (key == "measures") {
        for (const std::string& name : split_list(value)) {
          PLANORDER_ASSIGN_OR_RETURN(MeasureKind kind,
                                     MeasureKindFromName(name));
          s.measures.push_back(kind);
        }
      } else if (key == "algos") {
        for (const std::string& name : split_list(value)) {
          PLANORDER_ASSIGN_OR_RETURN(core::OrdererKind kind,
                                     core::OrdererKindFromName(name));
          s.algos.push_back(kind);
        }
      } else if (key == "thread_counts") {
        for (const std::string& item : split_list(value)) {
          s.thread_counts.push_back(std::stoi(item));
        }
      } else if (key == "check_oracle") {
        s.check_oracle = value != "0";
      } else if (key == "check_monotone") {
        s.check_monotone = value != "0";
      } else if (key == "check_relabel") {
        s.check_relabel = value != "0";
      } else if (key == "check_runtime") {
        s.check_runtime = value != "0";
      } else if (key == "check_ranked") {
        s.check_ranked = value != "0";
      } else if (key == "check_multi") {
        s.check_multi = value != "0";
      } else if (key == "num_sessions") {
        s.num_sessions = std::stoi(value);
      } else if (key == "num_shards") {
        s.num_shards = std::stoi(value);
      } else if (key == "multi_inject_stale") {
        s.multi_inject_stale = value != "0";
      } else if (key == "weights_seed") {
        s.weights_seed = std::stoull(value);
      } else if (key == "ranked_aggregation") {
        PLANORDER_ASSIGN_OR_RETURN(s.ranked_aggregation,
                                   anyk::AggregationFromName(value));
      } else if (key == "num_answers") {
        s.num_answers = std::stoi(value);
      } else if (key == "runtime_seed") {
        s.runtime_seed = std::stoull(value);
      } else if (key == "base_latency_ms") {
        s.base_latency_ms = std::stod(value);
      } else if (key == "per_binding_latency_ms") {
        s.per_binding_latency_ms = std::stod(value);
      } else if (key == "per_tuple_latency_ms") {
        s.per_tuple_latency_ms = std::stod(value);
      } else if (key == "latency_jitter") {
        s.latency_jitter = std::stod(value);
      } else if (key == "transient_failure_rate") {
        s.transient_failure_rate = std::stod(value);
      } else if (key == "hedge_delay_ms") {
        s.hedge_delay_ms = std::stod(value);
      } else if (key == "retry_max_attempts") {
        s.retry_max_attempts = std::stoi(value);
      } else if (key == "check_drift") {
        s.check_drift = value != "0";
      } else if (key == "drift_step") {
        s.drift_step = std::stoi(value);
      } else if (key == "drift_factor") {
        s.drift_factor = std::stod(value);
      } else if (key == "drift_band") {
        s.drift_band = std::stod(value);
      } else if (key == "drift_decay") {
        s.drift_decay = std::stod(value);
      } else if (key == "drift_sources") {
        s.drift_sources = std::stoi(value);
      } else if (key == "drift_seed") {
        s.drift_seed = std::stoull(value);
      } else if (key == "drift_inject_stale") {
        s.drift_inject_stale = value != "0";
      } else {
        return InvalidArgumentError("unknown scenario key '" + key + "'");
      }
    } catch (const std::exception&) {
      return InvalidArgumentError("bad value for scenario key '" + key +
                                  "': '" + value + "'");
    }
  }
  if (!saw_any_token) {
    return InvalidArgumentError("empty scenario line");
  }
  if (s.query_length < 1 || s.bucket_size < 1) {
    return InvalidArgumentError("scenario needs query_length/bucket_size >= 1");
  }
  return s;
}

Scenario MakeScenario(uint64_t base_seed, int step) {
  // Scenario i's stream is seeded from (base_seed, i) alone: replaying one
  // step never requires regenerating its predecessors.
  Rng rng(runtime::CombineHash(runtime::MixHash(base_seed), uint64_t(step)));
  Scenario s;
  s.base_seed = base_seed;
  s.step = step;

  s.query_length = int(rng.UniformInt(1, 4));
  s.bucket_size = int(rng.UniformInt(2, 5));
  // Keep the full space small enough for the O(plans^2) exhaustive oracle.
  while (s.NumPlans() > 80 && s.bucket_size > 2) --s.bucket_size;
  s.overlap_rate = rng.UniformReal(0.1, 0.9);
  s.regions_per_bucket = int(rng.UniformInt(4, 16));
  s.uniform_alpha = rng.Bernoulli(0.3);
  s.workload_seed = rng.engine()();

  // Every measure and every algorithm, every scenario: inapplicable pairs
  // (e.g. Greedy under a non-monotonic measure) are skipped by the harness,
  // and shrinking narrows the cross product once a failure is in hand.
  s.measures = AllMeasureKinds();
  s.algos = AllAlgoKinds();
  s.thread_counts = {2, int(rng.UniformInt(3, 8))};
  Shuffle(s.thread_counts, rng);
  // Discarded draw (the retired probe-bound axis): keeps every SEED:STEP in
  // tests/sim_corpus.txt deriving the same values for all later fields.
  (void)rng.Bernoulli(0.5);

  s.check_runtime = rng.Bernoulli(0.5);
  s.num_answers = int(rng.UniformInt(40, 160));
  s.runtime_seed = rng.engine()();
  s.base_latency_ms = rng.UniformReal(0.0, 5.0);
  s.per_binding_latency_ms = rng.UniformReal(0.0, 1.0);
  s.per_tuple_latency_ms = rng.UniformReal(0.0, 0.2);
  s.latency_jitter = rng.UniformReal(0.0, 0.9);
  s.transient_failure_rate = rng.UniformReal(0.0, 0.35);
  s.hedge_delay_ms = rng.Bernoulli(0.3) ? rng.UniformReal(1.0, 10.0) : 0.0;
  s.retry_max_attempts = 64;

  s.check_ranked = rng.Bernoulli(0.5);
  s.check_multi = rng.Bernoulli(0.35);
  s.num_sessions = int(rng.UniformInt(2, 6));
  s.num_shards = int(rng.UniformInt(1, 3));
  s.weights_seed = rng.engine()();
  s.ranked_aggregation = rng.Bernoulli(0.5) ? anyk::Aggregation::kSum
                                            : anyk::Aggregation::kMax;

  // Drift knobs last: earlier scenarios' derivations stay stable under the
  // same (base_seed, step) across sim versions that predate check_drift.
  s.check_drift = rng.Bernoulli(0.35);
  s.drift_step = int(rng.UniformInt(1, 5));
  s.drift_factor = rng.UniformReal(0.25, 5.0);
  s.drift_band = rng.UniformReal(1.2, 3.0);
  s.drift_decay = rng.UniformReal(0.3, 1.0);
  s.drift_sources = int(rng.UniformInt(1, 3));
  s.drift_seed = rng.engine()();
  return s;
}

}  // namespace planorder::sim
