#ifndef PLANORDER_CLUSTER_SOURCE_CACHE_H_
#define PLANORDER_CLUSTER_SOURCE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "exec/binding_batch.h"
#include "runtime/source_result_cache.h"
#include "service/shared_view.h"

namespace planorder::cluster {

/// Configuration of a SourceOperationCache.
struct SourceCacheOptions {
  /// Approximate bound on resident bytes, keys and rows alike; eviction
  /// walks the LRU tail until the cache fits. <= 0 means unbounded.
  int64_t capacity_bytes = 1 << 20;
};

/// The cross-session source-operation result cache of the cluster layer
/// (DESIGN.md §10): one instance shared by every shard's sessions through
/// two narrow interfaces —
///
///  - runtime::SourceResultCache, consulted by SourceRuntime once per batched
///    call: a resident entry is served with zero simulated latency, a miss
///    elects a single-flight leader so concurrent sessions touching the same
///    (source, binding-pattern, inputs) operation coalesce onto one fetch;
///  - service::SharedOperationView, polled by every session's orderer before
///    each plan emission: resident sources are charged zero residual cost by
///    the Section 6 caching measures, so one session's fetch changes the
///    conditional utilities of every other session's remaining plans.
///
/// Keys are the full call content by value: the source name and the
/// exec::BindingBatch (its bound positions and every binding combination, in
/// order), so two calls share an entry exactly when they ship the same
/// payload. Residency for the view is aggregated per source name — the
/// granularity the utility models resolve (see shared_view.h).
///
/// Bounded by approximate entry bytes (key plus rows) with LRU eviction: a
/// hit refreshes recency, Publish inserts at the front and evicts from the
/// tail. All state lives in ordered containers (std::map / std::list), so
/// iteration order can never leak hash-table nondeterminism into any output.
///
/// Thread-safe. Waiting is purely on the single-flight protocol: Acquire
/// blocks only while another caller's fetch for the same key is in flight.
class SourceOperationCache : public runtime::SourceResultCache,
                             public service::SharedOperationView {
 public:
  explicit SourceOperationCache(const SourceCacheOptions& options = {})
      : options_(options) {}

  SourceOperationCache(const SourceOperationCache&) = delete;
  SourceOperationCache& operator=(const SourceOperationCache&) = delete;

  // runtime::SourceResultCache:
  std::optional<std::vector<std::vector<datalog::Term>>> Acquire(
      const std::string& source_name, const exec::BindingBatch& batch,
      bool* leader) override EXCLUDES(mu_);
  void Publish(const std::string& source_name, const exec::BindingBatch& batch,
               const std::vector<std::vector<datalog::Term>>& rows) override
      EXCLUDES(mu_);
  void Abort(const std::string& source_name,
             const exec::BindingBatch& batch) override EXCLUDES(mu_);

  // service::SharedOperationView:
  bool IsResident(const std::string& source_name) const override EXCLUDES(mu_);

  runtime::SourceResultCacheStats stats() const EXCLUDES(mu_);

 private:
  /// (source name, batch). Probed through std::tie of the caller's
  /// arguments, so a lookup copies nothing.
  using Key = std::tuple<std::string, exec::BindingBatch>;
  struct Entry;
  using EntryMap = std::map<Key, std::shared_ptr<Entry>, std::less<>>;

  struct Entry {
    enum class State { kFetching, kResident, kAborted };
    State state = State::kFetching;
    /// Written once by Publish; never again while resident, so a hit copies
    /// it outside mu_.
    std::vector<std::vector<datalog::Term>> rows;
    int64_t bytes = 0;
    /// Position in lru_ while resident.
    std::list<EntryMap::iterator>::iterator lru_pos;
  };

  /// Approximate footprint of one resident entry: its key (name and every
  /// binding combination) and its rows.
  static int64_t ApproxBytes(
      const std::string& source_name, const exec::BindingBatch& batch,
      const std::vector<std::vector<datalog::Term>>& rows);

  /// Removes LRU-tail entries until the byte bound holds.
  void EvictToFit() REQUIRES(mu_);
  void RemoveResident(EntryMap::iterator it) REQUIRES(mu_);

  const SourceCacheOptions options_;
  mutable Mutex mu_;
  CondVar resolved_;
  /// Resident and in-flight entries. Ordered map: keyed lookup plus
  /// deterministic iteration if anyone ever walks it.
  EntryMap entries_ GUARDED_BY(mu_);
  /// Resident entries, most recently used first.
  std::list<EntryMap::iterator> lru_ GUARDED_BY(mu_);
  /// Resident entry count per source name, backing IsResident.
  std::map<std::string, int> resident_by_name_ GUARDED_BY(mu_);
  runtime::SourceResultCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace planorder::cluster

#endif  // PLANORDER_CLUSTER_SOURCE_CACHE_H_
