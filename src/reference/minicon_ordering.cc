#include "reference/minicon_ordering.h"

namespace planorder::reformulation {

StatusOr<std::vector<MiniConPlanStream>> BuildMiniConStreams(
    const std::vector<Mcd>& mcds,
    const std::vector<GeneralizedBucket>& buckets,
    const std::vector<McdPlanSpace>& spaces,
    const std::vector<stats::SourceStats>& per_source_stats,
    double access_overhead, double domain_size) {
  for (const Mcd& mcd : mcds) {
    if (mcd.source < 0 ||
        static_cast<size_t>(mcd.source) >= per_source_stats.size()) {
      return InvalidArgumentError("missing statistics for an MCD's source");
    }
  }
  std::vector<MiniConPlanStream> streams;
  streams.reserve(spaces.size());
  for (const McdPlanSpace& space : spaces) {
    MiniConPlanStream stream;
    std::vector<std::vector<stats::SourceStats>> bucket_stats;
    std::vector<std::vector<double>> weights;
    std::vector<double> domain_sizes;
    for (int bucket_index : space.bucket_indices) {
      const GeneralizedBucket& bucket = buckets[bucket_index];
      std::vector<stats::SourceStats> members;
      std::vector<int> mapping;
      for (int mcd_index : bucket.mcd_indices) {
        stats::SourceStats s = per_source_stats[mcds[mcd_index].source];
        s.regions.bits = 1;  // coverage not meaningful across spaces
        members.push_back(s);
        mapping.push_back(mcd_index);
      }
      bucket_stats.push_back(std::move(members));
      stream.mcd_by_bucket.push_back(std::move(mapping));
      weights.push_back({1.0});
      domain_sizes.push_back(domain_size);
    }
    PLANORDER_ASSIGN_OR_RETURN(
        stream.workload,
        stats::Workload::FromParts(std::move(bucket_stats), std::move(weights),
                                   access_overhead, std::move(domain_sizes)));
    streams.push_back(std::move(stream));
  }
  return streams;
}

}  // namespace planorder::reformulation
