#ifndef PLANORDER_SERVICE_METRICS_H_
#define PLANORDER_SERVICE_METRICS_H_

#include <array>
#include <cstdint>

#include "exec/mediator.h"
#include "reformulation/statistics.h"
#include "service/reformulation_cache.h"

namespace planorder::service {

/// Fixed-size log-linear latency histogram: 32 buckets per power of two of
/// microseconds, from 1 µs to 2^32 µs (about 71 min), plus an exact count
/// and an exact max. A value below 1 µs (zero included) counts in the first
/// bucket, one at or above 2^32 µs in the last. Its footprint is fixed at
/// about 8 KiB (1,024 64-bit counters) whatever it records: no heap storage
/// and no lock, so it is a plain copyable value that callers guard.
///
/// Merging adds bucket by bucket, so a merged histogram equals one that
/// recorded the union of the samples: same buckets, count, max and
/// percentiles.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 32;  // per power of two
  static constexpr int kOctaves = 32;     // 1 µs .. 2^32 µs
  static constexpr int kBuckets = kSubBuckets * kOctaves;

  void Record(double ms);

  /// Folds `other` in: buckets and counts add, the max is the larger.
  void Merge(const LatencyHistogram& other);

  /// Nearest-rank percentile, `p` in [0, 100]; 0.0 when empty. Returns the
  /// upper edge of the bucket that holds the nearest rank, clamped to the
  /// exact max (the last bucket has no upper edge, so it returns the max).
  /// So it is never below the exact nearest-rank value v, and for v at or
  /// above 1 µs it exceeds v by at most v/32 outside the last bucket; below
  /// 1 µs it is at most 1.03125 µs.
  double Percentile(double p) const;

  uint64_t count() const { return count_; }
  double max_ms() const { return max_ms_; }

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double max_ms_ = 0.0;
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

  /// End-to-end session latency (admission to Finish), milliseconds.
  LatencyHistogram latency;

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

  /// Field-wise fold of `other`: counts and queue depths add, peaks take the
  /// max, and the cache, memo, latency and runtime accounting merge. Every
  /// field merges exactly, so folding per-shard snapshots gives the cluster
  /// snapshot.
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
    latency.Merge(other.latency);
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
