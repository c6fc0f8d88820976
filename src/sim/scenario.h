#ifndef PLANORDER_SIM_SCENARIO_H_
#define PLANORDER_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "anyk/weights.h"
#include "base/status.h"
#include "core/orderer_factory.h"
#include "runtime/remote_source.h"
#include "stats/workload.h"
#include "utility/measures.h"

namespace planorder::sim {

/// The ordering algorithms under differential test, in the order every
/// generated scenario lists them: greedy, idrips, idrips-rebuild, streamer,
/// pi.
std::vector<core::OrdererKind> AllAlgoKinds();
/// All measure kinds, in enum order.
std::vector<utility::MeasureKind> AllMeasureKinds();

/// One fully specified simulation scenario: a synthetic LAV catalog +
/// workload, the utility measures and ordering algorithms to cross-check,
/// the runtime thread counts, and a runtime fault/latency schedule. Every
/// field is derived deterministically from (base_seed, step) by MakeScenario,
/// so a failure report of `seed:step` replays bit-identically; the shrinker
/// then mutates fields directly, which is why the struct is flat data with a
/// text serialization rather than an opaque seed.
struct Scenario {
  /// Provenance: the sweep that produced this scenario (replay key).
  uint64_t base_seed = 1;
  int step = 0;

  // --- Workload (the LAV catalog + statistics drawn for this scenario) ---
  int query_length = 2;
  int bucket_size = 3;
  double overlap_rate = 0.3;
  int regions_per_bucket = 8;
  /// When set, every source shares one transmission cost, which makes cost
  /// measure (2) fully monotonic (kCost2UniformAlpha becomes applicable).
  bool uniform_alpha = false;
  uint64_t workload_seed = 1;

  // --- What to cross-check ---
  std::vector<utility::MeasureKind> measures;
  std::vector<core::OrdererKind> algos;
  /// Runtime thread counts whose mediation must match the serial mediator
  /// (1 is implied: the serial run is always the baseline).
  std::vector<int> thread_counts;

  // --- Property toggles (the shrinker turns these off one by one) ---
  bool check_oracle = true;
  bool check_monotone = true;
  bool check_relabel = true;
  bool check_runtime = true;
  /// Ranked (any-k) differential check: stream the weighted answers of the
  /// scenario's synthetic domain through anyk::RankedAnswerStream and demand
  /// byte-identical output to the brute-force sort-all oracle, plus the
  /// ranked metamorphic properties (monotone weight transform, relabeling,
  /// serial == parallel).
  bool check_ranked = false;
  /// Multi-session cluster check (DESIGN.md §10): run several concurrent
  /// sessions of the scenario's query class through a ShardedService sharing
  /// one source-operation cache, and demand (a) every session's answer set
  /// is byte-identical to a serial replay and (b) each emitted step's
  /// utility equals a fresh evaluation under the cache residency the orderer
  /// saw at that step.
  bool check_multi = false;

  // --- Multi-session knobs (check_multi) ---
  int num_sessions = 4;
  int num_shards = 2;
  /// Fault injection: sessions see a residency view frozen at each source
  /// name's first poll (at session open) instead of the live cache,
  /// reproducing the stale-utility bug the property exists to catch. Used by
  /// the sim self test; never set by MakeScenario.
  bool multi_inject_stale = false;

  /// Adaptive re-ranking property (DESIGN.md §12): drift the true source
  /// statistics mid-stream, feed execution observations into an
  /// adaptive::AdaptiveOrderer after every emission, and demand its whole
  /// emission sequence match an independent rebuild-from-observed-stats
  /// oracle byte-for-byte — plus per-step conditional-maximality and
  /// serial == parallel at every thread count.
  bool check_drift = false;

  // --- Drift knobs (check_drift) ---
  /// Emission index at which the true statistics jump.
  int drift_step = 2;
  /// Multiplier applied to the drifted sources' true cardinality.
  double drift_factor = 3.0;
  /// Divergence band of the adaptive orderer (adaptive::DriftOptions::band).
  double drift_band = 2.0;
  /// EWMA decay of the observation folds (ObservedStatsOptions::decay).
  double drift_decay = 0.5;
  /// How many sources drift.
  int drift_sources = 1;
  /// Seeds the drifted-source choice and the measure pick.
  uint64_t drift_seed = 1;
  /// Fault injection: the adaptive orderer is built without the observed
  /// statistics it is fed, so it keeps serving its stale initial ranking —
  /// the planted bug the property must catch. Used by the sim self test;
  /// never set by MakeScenario.
  bool drift_inject_stale = false;

  // --- Ranked-enumeration knobs (check_ranked) ---
  uint64_t weights_seed = 1;
  anyk::Aggregation ranked_aggregation = anyk::Aggregation::kSum;

  // --- Runtime fault/latency schedule (check_runtime) ---
  int num_answers = 100;
  uint64_t runtime_seed = 1;
  double base_latency_ms = 0.0;
  double per_binding_latency_ms = 0.0;
  double per_tuple_latency_ms = 0.0;
  double latency_jitter = 0.0;
  double transient_failure_rate = 0.0;
  double hedge_delay_ms = 0.0;
  int retry_max_attempts = 64;

  stats::WorkloadOptions MakeWorkloadOptions() const;
  runtime::NetworkModel MakeNetworkModel() const;

  /// Plans in the full space: bucket_size ^ query_length.
  uint64_t NumPlans() const;

  /// Short human-readable summary (one line).
  std::string Summary() const;

  /// One-line key=value serialization, Deserialize's inverse. This is the
  /// replay-artifact format: a shrunk scenario no longer matches its seed
  /// derivation, so failures are persisted in this explicit form.
  std::string Serialize() const;
  static StatusOr<Scenario> Deserialize(const std::string& line);
};

/// Derives scenario `step` of the sweep under `base_seed`. Pure function of
/// its arguments: scenario i never depends on scenarios 0..i-1, so any step
/// can be replayed in isolation (`planorder_sim --replay=<seed>:<step>`).
Scenario MakeScenario(uint64_t base_seed, int step);

}  // namespace planorder::sim

#endif  // PLANORDER_SIM_SCENARIO_H_
