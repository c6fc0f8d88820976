#ifndef PLANORDER_RUNTIME_SOURCE_RESULT_CACHE_H_
#define PLANORDER_RUNTIME_SOURCE_RESULT_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datalog/term.h"
#include "exec/binding_batch.h"

namespace planorder::runtime {

/// Counters of a shared source-operation result cache. Monotone except for
/// the resident_* gauges, which track the current contents.
struct SourceResultCacheStats {
  int64_t hits = 0;                // Acquire returned cached rows
  int64_t misses = 0;              // Acquire elected the caller leader
  int64_t single_flight_waits = 0; // Acquire blocked behind an in-flight fetch
  int64_t insertions = 0;          // successful Publish calls
  int64_t evictions = 0;           // entries removed to respect the byte bound
  int64_t resident_bytes = 0;      // current approximate key + row bytes
  int64_t resident_entries = 0;    // current entry count
};

/// A cross-session cache of source-operation results, keyed by the full
/// content of a batched call — (source name, bound positions, binding
/// values). SourceRuntime consults it once per batched call, before
/// partitioning it over the pool, so the cached operation is the batch
/// whatever the pool size: a hit returns the rows at zero cost and zero
/// latency, which is exactly the paper's Section 6 caching semantics ("a
/// cached source access has zero residual cost") lifted from one session to
/// the whole service.
///
/// The protocol is single-flight. Acquire either returns the cached rows
/// (hit), or elects the caller *leader* for this key (miss, `*leader` set
/// true) — the leader must perform the real fetch and then call Publish on
/// success or Abort on failure. Concurrent Acquires for the same key block
/// until the leader resolves; on Abort one waiter is promoted to the new
/// leader, so a permanently failing fetch fails each caller individually
/// instead of wedging the key.
///
/// Implementations must be safe for concurrent use from many sessions and
/// must be deterministic given a deterministic caller schedule: the cache
/// stores exact fetched rows, so *which* session fetches never changes *what*
/// any session receives (AccessibleSource::FetchBatch is deterministic for
/// identical batches).
class SourceResultCache {
 public:
  virtual ~SourceResultCache() = default;

  /// Looks up the result of `batch` against `source_name`. Returns the rows
  /// on a hit. On a miss returns nullopt with `*leader == true`: the caller
  /// now owns the fetch and must Publish or Abort. If another caller is
  /// already fetching this key, blocks until that fetch resolves, then either
  /// returns the published rows or (after an Abort) may itself become leader.
  virtual std::optional<std::vector<std::vector<datalog::Term>>> Acquire(
      const std::string& source_name, const exec::BindingBatch& batch,
      bool* leader) = 0;

  /// Leader-only: stores the fetched rows and wakes all waiters with a hit.
  virtual void Publish(const std::string& source_name,
                       const exec::BindingBatch& batch,
                       const std::vector<std::vector<datalog::Term>>& rows) = 0;

  /// Leader-only: the fetch failed; wakes waiters so one can take over.
  virtual void Abort(const std::string& source_name,
                     const exec::BindingBatch& batch) = 0;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_SOURCE_RESULT_CACHE_H_
