#include "runtime/retry_policy.h"

#include <algorithm>
#include <cmath>

namespace planorder::runtime {

namespace {

constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.5;

}  // namespace

uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CombineHash(uint64_t a, uint64_t b) {
  return MixHash(a ^ MixHash(b));
}

double HashToUnit(uint64_t h) {
  // 53 high bits -> [0, 1) with full double precision.
  return double(h >> 11) * 0x1.0p-53;
}

double RetryPolicy::BackoffMs(int attempt, uint64_t hash) const {
  if (attempt < 1) attempt = 1;
  double backoff = initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) {
    backoff *= kBackoffMultiplier;
    if (backoff >= max_backoff_ms) break;
  }
  backoff = std::min(backoff, max_backoff_ms);
  backoff *= 1.0 - kJitterFraction * HashToUnit(MixHash(hash));
  return std::max(backoff, 0.0);
}

}  // namespace planorder::runtime
