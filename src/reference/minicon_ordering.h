#ifndef PLANORDER_REFERENCE_MINICON_ORDERING_H_
#define PLANORDER_REFERENCE_MINICON_ORDERING_H_

#include <vector>

#include "base/status.h"
#include "reference/minicon.h"
#include "stats/workload.h"

namespace planorder::reformulation {

/// One MiniCon plan space prepared for the ordering algorithms (Section 7):
/// a Workload whose bucket b holds the MCDs of the space's b-th generalized
/// bucket, plus the mapping from bucket positions back to MCD indices. A
/// concrete plan emitted by an orderer over `workload` picks positions
/// (i_0, ..., i_{m-1}); the corresponding rewriting is
/// CombineMcds(query, catalog, {mcds[mcd_by_bucket[b][i_b]]...}).
struct MiniConPlanStream {
  stats::Workload workload;
  std::vector<std::vector<int>> mcd_by_bucket;
};

/// Statistics attached to MCDs when deriving workloads: MCD stats are taken
/// from its source (per_source_stats[mcd.source]). Coverage-style region
/// masks are not meaningful across structurally different plan spaces, so
/// the derived workloads carry a single trivial region; use the fully
/// independent cost measures for ordering (which is also what makes merging
/// the per-space streams by utility exact: no emission from one stream can
/// change a utility buffered in another).
StatusOr<std::vector<MiniConPlanStream>> BuildMiniConStreams(
    const std::vector<Mcd>& mcds,
    const std::vector<GeneralizedBucket>& buckets,
    const std::vector<McdPlanSpace>& spaces,
    const std::vector<stats::SourceStats>& per_source_stats,
    double access_overhead, double domain_size);

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFERENCE_MINICON_ORDERING_H_
