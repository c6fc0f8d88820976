#include "stats/workload.h"

#include <algorithm>
#include <cmath>

#include "base/rng.h"

namespace planorder::stats {
namespace {

/// A contiguous arc of `length` regions starting at `start` on a ring of
/// `ring` regions.
RegionMask Arc(int start, int length, int ring) {
  RegionMask mask;
  for (int i = 0; i < length; ++i) {
    mask.bits |= uint64_t{1} << ((start + i) % ring);
  }
  return mask;
}

/// False for NaN, infinities and negatives.
bool FiniteNonNegative(double value) {
  return std::isfinite(value) && value >= 0.0;
}

}  // namespace

StatusOr<Workload> Workload::Generate(const WorkloadOptions& options) {
  if (options.query_length < 1) {
    return InvalidArgumentError("query_length must be >= 1");
  }
  if (options.bucket_size < 1) {
    return InvalidArgumentError("bucket_size must be >= 1");
  }
  if (options.regions_per_bucket < 1 || options.regions_per_bucket > 64) {
    return InvalidArgumentError("regions_per_bucket must be in [1, 64]");
  }
  if (options.overlap_rate < 0.0 || options.overlap_rate > 1.0) {
    return InvalidArgumentError("overlap_rate must be in [0, 1]");
  }
  if (options.failure_min < 0.0 || options.failure_max >= 1.0 ||
      options.failure_min > options.failure_max) {
    return InvalidArgumentError("failure range must satisfy 0 <= min <= max < 1");
  }

  Rng rng(options.seed);
  const int ring = options.regions_per_bucket;
  // Two random arcs of lengths L1, L2 on a ring of R regions intersect with
  // probability ~ min(1, (L1 + L2 - 1) / R); with a common mean length L the
  // expected pairwise overlap rate is (2L - 1) / R. Solve for L and jitter
  // individual lengths around it so cardinalities spread.
  const double mean_length =
      std::clamp((options.overlap_rate * ring + 1.0) / 2.0, 1.0, double(ring));

  std::vector<std::vector<SourceStats>> buckets(options.query_length);
  std::vector<std::vector<double>> region_weights(options.query_length);
  std::vector<double> domain_sizes(options.query_length);

  for (int b = 0; b < options.query_length; ++b) {
    // Slightly uneven region weights, normalized to 1.
    std::vector<double>& weights = region_weights[b];
    weights.resize(ring);
    double total = 0.0;
    for (double& w : weights) {
      w = rng.UniformReal(0.5, 1.5);
      total += w;
    }
    for (double& w : weights) w /= total;

    buckets[b].resize(options.bucket_size);
    double max_cardinality = 1.0;
    for (int i = 0; i < options.bucket_size; ++i) {
      SourceStats& s = buckets[b][i];
      const int length = std::clamp(
          static_cast<int>(std::lround(
              mean_length * rng.UniformReal(0.6, 1.4))),
          1, ring);
      const int start = static_cast<int>(rng.UniformInt(0, ring - 1));
      s.regions = Arc(start, length, ring);
      // Cardinality proportional to covered weight, with noise: sources that
      // cover more of the domain return more tuples.
      double covered = 0.0;
      for (int r = 0; r < ring; ++r) {
        if (s.regions.bits & (uint64_t{1} << r)) covered += weights[r];
      }
      s.cardinality = std::max(
          1.0, covered * options.tuples_per_domain * rng.UniformReal(0.7, 1.3));
      max_cardinality = std::max(max_cardinality, s.cardinality);
      s.transmission_cost = rng.UniformReal(options.alpha_min, options.alpha_max);
      s.failure_prob = rng.UniformReal(options.failure_min, options.failure_max);
      s.fee = rng.UniformReal(options.fee_min, options.fee_max);
    }
    domain_sizes[b] = max_cardinality * options.domain_size_factor;
  }

  return FromParts(std::move(buckets), std::move(region_weights),
                   options.access_overhead, std::move(domain_sizes));
}

StatusOr<Workload> Workload::FromParts(
    std::vector<std::vector<SourceStats>> buckets,
    std::vector<std::vector<double>> region_weights, double access_overhead,
    std::vector<double> domain_sizes) {
  if (buckets.empty()) return InvalidArgumentError("no buckets");
  if (buckets.size() != region_weights.size() ||
      buckets.size() != domain_sizes.size()) {
    return InvalidArgumentError(
        "buckets, region_weights and domain_sizes must align");
  }
  // Every statistic must be finite: a NaN slips past plain range checks
  // (all its comparisons are false) and later breaks interval arithmetic.
  if (!FiniteNonNegative(access_overhead)) {
    return InvalidArgumentError("access_overhead must be finite and >= 0");
  }
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) {
      return InvalidArgumentError("bucket " + std::to_string(b) + " is empty");
    }
    if (region_weights[b].empty() || region_weights[b].size() > 64) {
      return InvalidArgumentError("region_weights must have 1..64 entries");
    }
    for (double weight : region_weights[b]) {
      if (!FiniteNonNegative(weight)) {
        return InvalidArgumentError("region weights must be finite and >= 0");
      }
    }
    const uint64_t valid =
        region_weights[b].size() == 64
            ? ~uint64_t{0}
            : ((uint64_t{1} << region_weights[b].size()) - 1);
    for (const SourceStats& s : buckets[b]) {
      if ((s.regions.bits & ~valid) != 0) {
        return InvalidArgumentError("source mask uses undeclared regions");
      }
      if (!std::isfinite(s.cardinality) || s.cardinality <= 0.0) {
        return InvalidArgumentError("cardinality must be finite and positive");
      }
      if (!(s.failure_prob >= 0.0 && s.failure_prob < 1.0)) {
        return InvalidArgumentError("failure_prob must be in [0, 1)");
      }
      if (!FiniteNonNegative(s.transmission_cost)) {
        return InvalidArgumentError(
            "transmission_cost (alpha) must be finite and >= 0");
      }
      if (!FiniteNonNegative(s.fee)) {
        return InvalidArgumentError("fee must be finite and >= 0");
      }
    }
    if (!std::isfinite(domain_sizes[b]) || domain_sizes[b] <= 0.0) {
      return InvalidArgumentError("domain sizes must be finite and positive");
    }
  }

  Workload w;
  w.buckets_ = std::move(buckets);
  w.region_weights_ = std::move(region_weights);
  w.domain_sizes_ = std::move(domain_sizes);
  w.access_overhead_ = access_overhead;
  w.summaries_.resize(w.buckets_.size());
  for (size_t b = 0; b < w.buckets_.size(); ++b) {
    w.summaries_[b].reserve(w.buckets_[b].size());
    for (size_t i = 0; i < w.buckets_[b].size(); ++i) {
      double mask_weight = 0.0;
      uint64_t bits = w.buckets_[b][i].regions.bits;
      while (bits != 0) {
        mask_weight += w.region_weights_[b][__builtin_ctzll(bits)];
        bits &= bits - 1;
      }
      w.summaries_[b].push_back(
          StatSummary::ForConcrete(static_cast<int>(b), static_cast<int>(i),
                                   w.buckets_[b][i], mask_weight));
    }
  }
  return w;
}

}  // namespace planorder::stats
