#ifndef PLANORDER_SERVICE_METRICS_H_
#define PLANORDER_SERVICE_METRICS_H_

#include <cstdint>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "exec/mediator.h"
#include "reformulation/statistics.h"
#include "service/reformulation_cache.h"

namespace planorder::service {

/// Reservoir-free latency recorder: keeps every sample (service runs are
/// bounded to thousands of sessions, not millions) and computes exact
/// percentiles on demand. Thread-safe.
class LatencyHistogram {
 public:
  void Record(double ms) EXCLUDES(mu_);

  /// Exact percentile by nearest-rank over the recorded samples; 0.0 when
  /// empty. `p` in [0, 100].
  double Percentile(double p) const EXCLUDES(mu_);

  size_t count() const EXCLUDES(mu_);
  double max_ms() const EXCLUDES(mu_);
  double total_ms() const EXCLUDES(mu_);

  /// Folds `other`'s samples into this histogram. Because every sample is
  /// kept, the merged percentiles are *exact* over the union — identical to
  /// recording all samples into one histogram — which is what shard-level
  /// aggregation needs (percentiles of per-shard snapshots cannot be merged;
  /// raw samples can). Safe against concurrent Records on either side;
  /// `other`'s samples are snapshotted first so the two locks never nest.
  void Merge(const LatencyHistogram& other) EXCLUDES(mu_);

  /// Copy of the raw samples, in record order.
  std::vector<double> Samples() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<double> samples_ GUARDED_BY(mu_);
  double max_ms_ GUARDED_BY(mu_) = 0.0;
  double total_ms_ GUARDED_BY(mu_) = 0.0;
};

/// Point-in-time service counters, safe to read while sessions run.
struct ServiceMetricsSnapshot {
  // Admission control.
  int64_t sessions_admitted = 0;
  int64_t sessions_completed = 0;
  /// Rejected with kResourceExhausted (queue full or admission deadline).
  int64_t sessions_shed = 0;
  /// Sessions that waited in the admission queue before a slot opened.
  int64_t sessions_queued = 0;
  int active_sessions = 0;
  int queue_depth = 0;
  int queue_depth_peak = 0;

  // Reformulation cache.
  ReformulationCache::Stats cache;
  int64_t canonicalizations = 0;
  /// Containment-based equivalence checks run on cache hits (one per hit),
  /// and how many failed — a failure means the canonical key matched a
  /// non-equivalent query and the hit was demoted to a miss. Zero failures
  /// expected in practice.
  int64_t cache_verifications = 0;
  int64_t cache_verification_failures = 0;
  /// The binding-hash memo behind reformulation misses: a hit is one
  /// source's scan for one subgoal pattern served from memory.
  reformulation::BindingHashMemo::Stats estimation_memo;

  // End-to-end session latency (admission to Finish), milliseconds.
  size_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  // Plan-store persistence (ServiceOptions::plan_store).
  /// Reformulations restored from the store at construction (warm start).
  int64_t plan_store_entries_loaded = 0;
  /// Entries of a loaded store skipped as malformed (unparsable query,
  /// SourceId outside the catalog, invalid workload, or SourceId buckets
  /// shaped unlike the workload); the rest of the store still loads.
  int64_t plan_store_entries_rejected = 0;
  /// Stores rejected at load (corruption, version/catalog mismatch) — each
  /// one is a survived cold start, not a crash.
  int64_t plan_store_load_failures = 0;
  int64_t plan_store_saves = 0;
  /// Store writes that failed (e.g. an unwritable directory). The service
  /// keeps serving; the next cold miss retries the write.
  int64_t plan_store_save_failures = 0;

  // Mediation totals across completed sessions.
  int64_t total_answers = 0;
  int64_t total_steps = 0;
  /// Aggregated resilient-runtime accounting of all completed sessions.
  exec::RuntimeAccounting runtime;

  /// Counter-wise sum with `other`: counts add, gauges/peaks take the max,
  /// cache and runtime accounting merge. Latency *percentiles* are NOT
  /// merged (percentiles of percentiles are meaningless) — latency_count,
  /// max and the merged percentiles must be recomputed from the raw
  /// histograms (LatencyHistogram::Merge); ShardedService::MergedMetrics
  /// does exactly that. This member only folds the countable fields and
  /// leaves the latency_* fields untouched.
  void Merge(const ServiceMetricsSnapshot& other) {
    sessions_admitted += other.sessions_admitted;
    sessions_completed += other.sessions_completed;
    sessions_shed += other.sessions_shed;
    sessions_queued += other.sessions_queued;
    active_sessions += other.active_sessions;
    queue_depth += other.queue_depth;
    if (other.queue_depth_peak > queue_depth_peak) {
      queue_depth_peak = other.queue_depth_peak;
    }
    cache.hits += other.cache.hits;
    cache.misses += other.cache.misses;
    cache.collisions += other.cache.collisions;
    cache.evictions += other.cache.evictions;
    cache.insertions += other.cache.insertions;
    cache.size += other.cache.size;
    cache.capacity += other.cache.capacity;
    canonicalizations += other.canonicalizations;
    cache_verifications += other.cache_verifications;
    cache_verification_failures += other.cache_verification_failures;
    estimation_memo.hits += other.estimation_memo.hits;
    estimation_memo.misses += other.estimation_memo.misses;
    estimation_memo.evictions += other.estimation_memo.evictions;
    estimation_memo.bytes += other.estimation_memo.bytes;
    plan_store_entries_loaded += other.plan_store_entries_loaded;
    plan_store_entries_rejected += other.plan_store_entries_rejected;
    plan_store_load_failures += other.plan_store_load_failures;
    plan_store_saves += other.plan_store_saves;
    plan_store_save_failures += other.plan_store_save_failures;
    total_answers += other.total_answers;
    total_steps += other.total_steps;
    runtime.Merge(other.runtime);
  }
};

}  // namespace planorder::service

#endif  // PLANORDER_SERVICE_METRICS_H_
