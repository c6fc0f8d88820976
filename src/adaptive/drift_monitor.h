#ifndef PLANORDER_ADAPTIVE_DRIFT_MONITOR_H_
#define PLANORDER_ADAPTIVE_DRIFT_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/observed_stats.h"
#include "stats/workload.h"

namespace planorder::adaptive {

/// Policy of the divergence monitor: when do observations have left the
/// configurable band around the estimates the current plan order was built
/// from, making a mid-stream discard-and-reorder worthwhile?
struct DriftOptions {
  /// Multiplicative tolerance band on per-source cardinality: diverged when
  /// observed/baseline leaves [1/band, band] for any qualifying source.
  /// Must be >= 1; larger bands re-rank less eagerly.
  double band = 2.0;
  /// A source qualifies only after this many folded calls — one aberrant
  /// call should not throw away a whole plan order.
  int64_t min_calls = 1;
};

/// The divergence predicate, pure and deterministic: true when any source
/// with `min_calls` folded calls and an observed cardinality has drifted out
/// of the band relative to `baseline`. `source_names[b][i]` names the source
/// at bucket b, index i (same grid BlendWorkload uses). Both the adaptive
/// orderer and the sim's rebuild-from-observed-stats oracle call exactly
/// this function, so their re-rank decisions agree byte-for-byte.
bool StatsDiverged(const stats::Workload& baseline,
                   const std::vector<std::vector<std::string>>& source_names,
                   const ObservedStats& observed, const DriftOptions& options);

}  // namespace planorder::adaptive

#endif  // PLANORDER_ADAPTIVE_DRIFT_MONITOR_H_
