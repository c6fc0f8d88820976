#ifndef PLANORDER_SERVICE_REFORMULATION_CACHE_H_
#define PLANORDER_SERVICE_REFORMULATION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "datalog/canonicalize.h"
#include "reformulation/bucket.h"
#include "stats/workload.h"

namespace planorder::service {

/// The expensive front half of a mediation run, computed once per
/// canonical-query class: the bucket algorithm's plan space plus the
/// instance-estimated workload statistics over it. Immutable after
/// construction; sessions share entries by shared_ptr so an entry stays
/// alive while any session's orderer still points into its workload, even
/// after cache eviction.
struct CachedReformulation {
  datalog::CanonicalQuery canonical;
  reformulation::BucketResult buckets;
  stats::Workload workload;
};

/// Thread-safe LRU cache of reformulations keyed by canonical form. The
/// structural hash indexes the table; a hit additionally requires the full
/// canonical key string to match (hash collisions are counted and treated as
/// misses, never served). QueryService re-verifies every hit with a
/// containment-based equivalence test on top — the belt-and-braces check
/// that a key match really is query equivalence.
class ReformulationCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Lookups whose hash matched a resident entry with a different
    /// canonical key. Served as misses.
    int64_t collisions = 0;
    int64_t evictions = 0;
    int64_t insertions = 0;
    size_t size = 0;
    size_t capacity = 0;
  };

  /// `capacity` == 0 disables caching (every lookup misses, inserts drop).
  explicit ReformulationCache(size_t capacity) : capacity_(capacity) {}

  ReformulationCache(const ReformulationCache&) = delete;
  ReformulationCache& operator=(const ReformulationCache&) = delete;

  /// Returns the resident entry for `canonical`, bumping it to
  /// most-recently-used, or nullptr on miss/collision.
  std::shared_ptr<const CachedReformulation> Lookup(
      const datalog::CanonicalQuery& canonical) EXCLUDES(mu_);

  /// Inserts `entry` as most-recently-used, evicting from the LRU end past
  /// capacity. A same-key entry already resident is replaced (last writer
  /// wins; races between concurrent misses on the same query are benign).
  void Insert(std::shared_ptr<const CachedReformulation> entry) EXCLUDES(mu_);

  /// Resident entries, most-recently-used first (plan-store persistence).
  std::vector<std::shared_ptr<const CachedReformulation>> Snapshot() const
      EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  using LruList = std::list<std::shared_ptr<const CachedReformulation>>;

  mutable Mutex mu_;
  const size_t capacity_;
  LruList lru_ GUARDED_BY(mu_);  // front = most recent
  // Hash-indexed handle into the LRU list: lookup/erase by key only, never
  // iterated, so the bucket order cannot reach any output.
  // detlint: order-insensitive(keyed lookup/erase only; never iterated)
  std::unordered_map<uint64_t, LruList::iterator> by_hash_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace planorder::service

#endif  // PLANORDER_SERVICE_REFORMULATION_CACHE_H_
