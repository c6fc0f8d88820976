#include "sim/shrink.h"

#include <functional>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace planorder::sim {

namespace {

/// One shrinking pass: field by field, try every smaller variant in
/// ascending size order and adopt the first that still fails. Returns true
/// when anything was adopted.
class Shrinker {
 public:
  Shrinker(const SimOptions& options, const ScenarioPredicate& predicate,
           ShrinkResult* result)
      : options_(options), predicate_(predicate), result_(result) {}

  /// Re-runs a candidate; on failure adopts it (and its message) as the new
  /// smallest reproducer.
  bool StillFails(const Scenario& candidate) {
    ++result_->attempts;
    Status status = predicate_(candidate, options_);
    if (status.ok()) return false;
    result_->scenario = candidate;
    result_->failure = std::string(status.message());
    return true;
  }

  bool Pass() {
    bool changed = false;
    changed |= ShrinkInt(
        [](Scenario& s) -> int& { return s.query_length; }, 1);
    changed |= ShrinkInt(
        [](Scenario& s) -> int& { return s.bucket_size; }, 2);
    changed |= ShrinkMeasures();
    changed |= ShrinkAlgos();
    changed |= ShrinkThreads();
    // Dropping a whole property class is a big simplification: the failure
    // no longer depends on that machinery at all.
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_runtime;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_ranked;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_multi;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_drift;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_monotone;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_relabel;
    });
    changed |= DisableFlag([](Scenario& s) -> bool& {
      return s.check_oracle;
    });
    changed |= ShrinkInt(
        [](Scenario& s) -> int& { return s.regions_per_bucket; }, 2);
    if (result_->scenario.check_runtime) {
      changed |= ShrinkInt(
          [](Scenario& s) -> int& { return s.num_answers; }, 10);
      changed |= QuietNetwork();
    }
    if (result_->scenario.check_multi) {
      changed |= ShrinkInt(
          [](Scenario& s) -> int& { return s.num_sessions; }, 2);
      changed |= ShrinkInt(
          [](Scenario& s) -> int& { return s.num_shards; }, 1);
    }
    if (result_->scenario.check_drift) {
      // drift_inject_stale is deliberately left alone: the planted bug is
      // part of the reproducer, not noise to minimize away.
      changed |= ShrinkInt(
          [](Scenario& s) -> int& { return s.drift_sources; }, 1);
      changed |= ShrinkInt(
          [](Scenario& s) -> int& { return s.drift_step; }, 1);
    }
    return changed;
  }

 private:
  /// Tries the floor, the midpoint, then current - 1 (repeated passes
  /// binary-search the rest of the way down without re-running every value).
  bool ShrinkInt(const std::function<int&(Scenario&)>& field, int floor) {
    const int current = field(result_->scenario);
    if (current <= floor) return false;
    std::vector<int> targets = {floor};
    const int half = (floor + current) / 2;
    if (half > floor && half < current) targets.push_back(half);
    if (current - 1 > floor && current - 1 != half) {
      targets.push_back(current - 1);
    }
    for (int target : targets) {
      Scenario candidate = result_->scenario;
      field(candidate) = target;
      if (StillFails(candidate)) return true;
    }
    return false;
  }

  bool DisableFlag(const std::function<bool&(Scenario&)>& field) {
    if (!field(result_->scenario)) return false;
    Scenario candidate = result_->scenario;
    field(candidate) = false;
    return StillFails(candidate);
  }

  bool ShrinkMeasures() {
    if (result_->scenario.measures.size() <= 1) return false;
    for (utility::MeasureKind kind : result_->scenario.measures) {
      Scenario candidate = result_->scenario;
      candidate.measures = {kind};
      if (StillFails(candidate)) return true;
    }
    return false;
  }

  bool ShrinkAlgos() {
    if (result_->scenario.algos.size() <= 1) return false;
    for (core::OrdererKind algo : result_->scenario.algos) {
      Scenario candidate = result_->scenario;
      candidate.algos = {algo};
      if (StillFails(candidate)) return true;
    }
    return false;
  }

  bool ShrinkThreads() {
    if (result_->scenario.thread_counts.empty()) return false;
    {
      // No parallel-agreement checks at all (the serial baseline stays).
      Scenario candidate = result_->scenario;
      candidate.thread_counts.clear();
      if (StillFails(candidate)) return true;
    }
    if (result_->scenario.thread_counts.size() > 1) {
      for (int threads : result_->scenario.thread_counts) {
        Scenario candidate = result_->scenario;
        candidate.thread_counts = {threads};
        if (StillFails(candidate)) return true;
      }
    }
    return false;
  }

  bool QuietNetwork() {
    Scenario& s = result_->scenario;
    if (s.base_latency_ms == 0.0 && s.per_binding_latency_ms == 0.0 &&
        s.per_tuple_latency_ms == 0.0 && s.latency_jitter == 0.0 &&
        s.transient_failure_rate == 0.0 && s.hedge_delay_ms == 0.0) {
      return false;
    }
    Scenario candidate = s;
    candidate.base_latency_ms = 0.0;
    candidate.per_binding_latency_ms = 0.0;
    candidate.per_tuple_latency_ms = 0.0;
    candidate.latency_jitter = 0.0;
    candidate.transient_failure_rate = 0.0;
    candidate.hedge_delay_ms = 0.0;
    return StillFails(candidate);
  }

  const SimOptions& options_;
  const ScenarioPredicate& predicate_;
  ShrinkResult* result_;
};

}  // namespace

ShrinkResult Shrink(const Scenario& failing, const SimOptions& options) {
  return ShrinkWith(failing, options,
                    [](const Scenario& candidate, const SimOptions& opts) {
                      return RunScenario(candidate, opts, /*report=*/nullptr);
                    });
}

ShrinkResult ShrinkWith(const Scenario& failing, const SimOptions& options,
                        const ScenarioPredicate& predicate) {
  ShrinkResult result;
  result.scenario = failing;
  Shrinker shrinker(options, predicate, &result);
  PLANORDER_CHECK(shrinker.StillFails(failing))
      << "Shrink() requires a failing scenario";
  // Greedy to fixpoint: a pass that adopts nothing terminates the search.
  // Passes are bounded as a backstop against pathological oscillation
  // (adoption strictly shrinks a well-founded measure, so this should never
  // bind).
  constexpr int kMaxRounds = 8;
  while (result.rounds < kMaxRounds) {
    ++result.rounds;
    if (!shrinker.Pass()) break;
  }
  return result;
}

}  // namespace planorder::sim
