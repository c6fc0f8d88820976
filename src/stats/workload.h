#ifndef PLANORDER_STATS_WORKLOAD_H_
#define PLANORDER_STATS_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "stats/bitmask_universe.h"
#include "stats/coverage_universe.h"
#include "stats/source_stats.h"

namespace planorder::stats {

/// Parameters of the synthetic integration domains used by the experiments
/// (the paper's synthetic data, Section 6). Each of the m query subgoals gets
/// a bucket of `bucket_size` sources. A source covers a contiguous arc of its
/// bucket's region ring; arc lengths are sized so that a source overlaps an
/// expected `overlap_rate` fraction of the other sources in its bucket, the
/// knob the paper sweeps.
struct WorkloadOptions {
  /// Query length m (number of subgoals / buckets). 1..7 in the paper.
  int query_length = 3;
  /// Number of sources per bucket.
  int bucket_size = 10;
  /// Expected fraction of the other sources in a bucket that a given source
  /// overlaps. 0.3 in Figures 6.a-c.
  double overlap_rate = 0.3;
  /// Regions per bucket domain (<= 64).
  int regions_per_bucket = 16;

  /// Per-access overhead h of cost measures (1) and (2).
  double access_overhead = 5.0;
  /// Transmission cost α range (uniform). Varying α across sources is what
  /// makes cost measure (2) non-monotonic (Section 3).
  double alpha_min = 0.05;
  double alpha_max = 1.0;
  /// Source failure probability range (uniform).
  double failure_min = 0.0;
  double failure_max = 0.5;
  /// Monetary fee per shipped item range (uniform).
  double fee_min = 0.01;
  double fee_max = 2.0;
  /// Domain size N_b per bucket for the bound-join estimate n_j * n_i / N of
  /// cost measure (2), as a multiple of the largest source cardinality.
  double domain_size_factor = 4.0;
  /// Source cardinalities are proportional to covered weight times this many
  /// tuples per bucket domain.
  double tuples_per_domain = 1000.0;

  uint64_t seed = 42;
};

/// A fully instantiated synthetic integration domain: per-bucket region
/// weights and per-source statistics. Immutable after generation; the
/// mutable execution state (covered cells, op cache) lives in
/// utility::ExecutionContext.
class Workload {
 public:
  /// Generates a workload. Fails on out-of-range options.
  static StatusOr<Workload> Generate(const WorkloadOptions& options);

  /// Builds a workload from explicit parts (used by tests and by domains with
  /// hand-written statistics, e.g. the examples). `region_weights[b]` must
  /// have <= 64 entries; every source mask must fit in them. Every statistic
  /// must be finite; weights, alpha, fee and overhead must be >= 0
  /// (kInvalidArgument otherwise).
  static StatusOr<Workload> FromParts(
      std::vector<std::vector<SourceStats>> buckets,
      std::vector<std::vector<double>> region_weights, double access_overhead,
      std::vector<double> domain_sizes);

  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  int bucket_size(int b) const { return static_cast<int>(buckets_[b].size()); }

  const SourceStats& source(int bucket, int index) const {
    return buckets_[bucket][index];
  }
  /// Precomputed concrete summary (point intervals) for a source.
  const StatSummary& summary(int bucket, int index) const {
    return summaries_[bucket][index];
  }

  const std::vector<std::vector<double>>& region_weights() const {
    return region_weights_;
  }
  double access_overhead() const { return access_overhead_; }
  /// Domain size N_b of bucket b (for the bound-join output estimate).
  double domain_size(int bucket) const { return domain_sizes_[bucket]; }

  /// A fresh coverage universe over this workload's region weights.
  CoverageUniverse MakeUniverse() const {
    return CoverageUniverse(region_weights_);
  }

  /// The compiled (trie + popcount-table) form of the same universe — what
  /// the ordering core evaluates against (DESIGN.md §11).
  BitmaskUniverse MakeBitmaskUniverse() const {
    return BitmaskUniverse(region_weights_);
  }

 private:
  std::vector<std::vector<SourceStats>> buckets_;
  std::vector<std::vector<StatSummary>> summaries_;
  std::vector<std::vector<double>> region_weights_;
  std::vector<double> domain_sizes_;
  double access_overhead_ = 0.0;
};

}  // namespace planorder::stats

#endif  // PLANORDER_STATS_WORKLOAD_H_
