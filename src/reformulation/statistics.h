#ifndef PLANORDER_REFORMULATION_STATISTICS_H_
#define PLANORDER_REFORMULATION_STATISTICS_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "reformulation/bucket.h"
#include "stats/workload.h"

namespace planorder::reformulation {

/// Options for instance-driven statistics estimation.
struct EstimateOptions {
  /// Regions per bucket domain (hash buckets for coverage estimation).
  int regions_per_bucket = 16;
  /// The workload's per-call access overhead `h`. The other cost-model
  /// parameters that cannot be derived from data (per-tuple transmission
  /// cost, failure probability, fee) take fixed values for every source.
  double access_overhead = 5.0;
};

/// Resident-byte bound of a BindingHashMemo unless its constructor is told
/// otherwise: 1 MiB. A QueryService's memo over the 16 head projections of a
/// 3-subgoal chain with 64 sources per bucket holds 384 entries, ~0.25 MiB.
inline constexpr size_t kBindingMemoBytes = size_t{1} << 20;

/// Memo of the estimator's per-source scan: for a (SourceId, subgoal
/// pattern) key, the datalog::TermVectorHash of every distinct binding the
/// source contributes to the subgoal, in evaluation order. The pattern is
/// the subgoal with each variable replaced by its rank among the subgoal's
/// variable names in sorted order — the order the estimator lays out its
/// projection columns, so two subgoals with one key hash their bindings
/// identically. The estimator scans the pattern itself, so a hit reproduces
/// a fresh scan bit for bit.
///
/// Keys carry SourceIds, not source contents: one memo must only ever serve
/// one (catalog, source facts) pair.
///
/// A mutex-guarded LRU bounded by approximate resident bytes; an entry
/// larger than the bound is dropped at insertion. Values are immutable and
/// shared, so callers read them outside the lock. Thread-safe.
class BindingHashMemo {
 public:
  using Hashes = std::shared_ptr<const std::vector<size_t>>;
  /// (source, subgoal pattern).
  using Key = std::pair<datalog::SourceId, datalog::Atom>;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Approximate bytes resident now: keys, hash arrays and a fixed
    /// per-entry overhead (allocator overhead not counted).
    size_t bytes = 0;
  };

  explicit BindingHashMemo(size_t capacity_bytes = kBindingMemoBytes)
      : capacity_bytes_(capacity_bytes) {}

  BindingHashMemo(const BindingHashMemo&) = delete;
  BindingHashMemo& operator=(const BindingHashMemo&) = delete;

  /// The pattern of `goal`: each variable renamed to its rank among the
  /// goal's variable names in sorted order (zero-padded decimal).
  static datalog::Atom PatternOf(const datalog::Atom& goal);

  /// The resident hashes for `key`, bumped to most-recently-used, or null.
  Hashes Lookup(const Key& key) EXCLUDES(mu_);

  /// Inserts `hashes` as most-recently-used (keeping a resident same-key
  /// entry: both hold the same hashes), then evicts from the LRU end until
  /// the byte bound holds.
  void Insert(Key key, Hashes hashes) EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    Hashes hashes;
    size_t bytes = 0;
    std::list<const Key*>::iterator lru_pos;
  };

  const size_t capacity_bytes_;
  mutable Mutex mu_;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  /// The keys of entries_ (map nodes never move), most recent first.
  std::list<const Key*> lru_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

/// Estimates a Workload for `buckets` directly from materialized source
/// instances: for every source in a bucket,
///  - cardinality = the number of distinct bindings the source can
///    contribute to the bucket's subgoal (query constants applied), and
///  - the coverage region set = the hash buckets those bindings fall into,
/// with region weights proportional to the number of distinct bindings seen
/// across the bucket. Two sources then share coverage regions exactly when
/// they share subgoal bindings (up to hash collisions, which only ever make
/// the model *more* conservative about independence — never less).
///
/// This is what makes the ordering algorithms usable on real data without
/// hand-written statistics; the synthetic-domain tests validate that the
/// estimates reconstruct the generator's designed statistics.
///
/// Runs the memoized overload below over a call-local memo that retains
/// nothing, so every source is scanned.
StatusOr<stats::Workload> EstimateWorkloadFromInstances(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const BucketResult& buckets, const datalog::Database& source_facts,
    const EstimateOptions& options = {});

/// The one estimation kernel: as above, with each source's binding hashes
/// taken from `memo` when resident and scanned (then inserted) otherwise.
/// The result is bit-identical to a fresh estimate whatever `memo` holds,
/// provided `memo` has only seen this `catalog` and `source_facts`.
StatusOr<stats::Workload> EstimateWorkloadFromInstances(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const BucketResult& buckets, const datalog::Database& source_facts,
    const EstimateOptions& options, BindingHashMemo& memo);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFORMULATION_STATISTICS_H_
