#ifndef PLANORDER_REFORMULATION_STATISTICS_H_
#define PLANORDER_REFORMULATION_STATISTICS_H_

#include "base/status.h"
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
StatusOr<stats::Workload> EstimateWorkloadFromInstances(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog,
    const BucketResult& buckets, const datalog::Database& source_facts,
    const EstimateOptions& options = {});

}  // namespace planorder::reformulation

#endif  // PLANORDER_REFORMULATION_STATISTICS_H_
