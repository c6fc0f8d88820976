#include "service/metrics.h"

#include <algorithm>
#include <cmath>

namespace planorder::service {
namespace {

constexpr double kTopUs = 4294967296.0;  // 2^32 µs, the first value past range

int BucketOf(double ms) {
  const double us = ms * 1000.0;
  if (!(us >= 1.0)) return 0;  // below the floor, zero and NaN included
  if (us >= kTopUs) return LatencyHistogram::kBuckets - 1;
  int exponent = 0;
  // us = mantissa * 2^exponent with mantissa in [0.5, 1): the octave is
  // exponent - 1 and the linear position inside it (2 * mantissa - 1), both
  // exact in binary floating point.
  const double mantissa = std::frexp(us, &exponent);
  const int sub = static_cast<int>((2.0 * mantissa - 1.0) *
                                   LatencyHistogram::kSubBuckets);
  return (exponent - 1) * LatencyHistogram::kSubBuckets + sub;
}

double UpperEdgeMs(int bucket) {
  const int octave = bucket / LatencyHistogram::kSubBuckets;
  const int sub = bucket % LatencyHistogram::kSubBuckets;
  return std::ldexp(1.0 + double(sub + 1) / LatencyHistogram::kSubBuckets,
                    octave) /
         1000.0;
}

}  // namespace

void LatencyHistogram::Record(double ms) {
  ++buckets_[size_t(BucketOf(ms))];
  ++count_;
  if (ms > max_ms_) max_ms_ = ms;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ms_ = std::max(max_ms_, other.max_ms_);
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest sample with at least p% of the mass at or
  // below it.
  const auto rank = static_cast<uint64_t>(std::clamp(
      std::ceil(p / 100.0 * double(count_)), 1.0, double(count_)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[size_t(i)];
    if (seen < rank) continue;
    if (i == kBuckets - 1) return max_ms_;
    return std::min(UpperEdgeMs(i), max_ms_);
  }
  return max_ms_;
}

}  // namespace planorder::service
