#ifndef PLANORDER_RUNTIME_TRACE_SINK_H_
#define PLANORDER_RUNTIME_TRACE_SINK_H_

#include <cstdint>
#include <string>

namespace planorder::runtime {

/// One completed resilient source call, reduced to the integer facts the
/// adaptive statistics layer folds (src/adaptive/observed_stats.h). Every
/// field is integral on purpose: integer addition commutes and associates
/// exactly, so accumulating observations is bit-identical under any thread
/// interleaving — the property the determinism contract (DESIGN.md §9)
/// demands of everything feeding back into plan ordering.
struct SourceObservation {
  /// Result tuples shipped back (0 when the call failed).
  int64_t rows = 0;
  /// Call attempts paid, 1 + retries.
  int64_t attempts = 0;
  /// Failed attempts among them (transient faults, or the one attempt
  /// against a permanently dead source).
  int64_t failures = 0;
  /// Total simulated latency of the call in microseconds, including failed
  /// attempts and backoff waits (undilated, like RuntimeAccounting).
  int64_t latency_micros = 0;
  /// The whole logical call gave up (permanent outage, retries exhausted).
  bool call_failed = false;
};

/// Receiver of per-call execution traces from the resilient runtime — the
/// observe edge of the observe → re-rank → persist loop. Implementations
/// must be thread-safe: the runtime invokes RecordFetch from pool workers
/// concurrently. Cache hits are NOT reported (a resident operation costs
/// nothing and reveals nothing about the source's current behavior).
class SourceTraceSink {
 public:
  virtual ~SourceTraceSink() = default;

  /// Called once per completed uncached call, success or failure.
  virtual void RecordFetch(const std::string& source_name,
                           const SourceObservation& observation) = 0;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_TRACE_SINK_H_
