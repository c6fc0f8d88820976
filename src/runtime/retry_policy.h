#ifndef PLANORDER_RUNTIME_RETRY_POLICY_H_
#define PLANORDER_RUNTIME_RETRY_POLICY_H_

#include <cstdint>

namespace planorder::runtime {

/// Deterministic, schedule-independent randomness for the simulated network.
///
/// The runtime executes source calls on a thread pool, so consuming a
/// sequential RNG stream would make latency and fault draws depend on thread
/// interleaving. Instead every draw is a pure hash of *what* is being done —
/// (seed, source, call payload, attempt) — so a run with the same seed makes
/// identical decisions no matter how the scheduler slices it. base/rng.h
/// still seeds the per-source keys (see SourceRuntime), keeping the single
/// recorded-seed reproducibility convention of the rest of the library.
///
/// MixHash is the SplitMix64 finalizer (Steele et al.), a strong 64-bit
/// mixer; CombineHash folds two words. Strings enter through Fnv1a64
/// (base/hash.h).
uint64_t MixHash(uint64_t x);
uint64_t CombineHash(uint64_t a, uint64_t b);

/// Maps a hash to a uniform real in [0, 1).
double HashToUnit(uint64_t h);

/// Capped exponential backoff with deterministic jitter. Attempt numbering
/// is 1-based: attempt 1 is the initial call; BackoffMs(k, h) is the wait
/// before attempt k+1. The backoff doubles per attempt up to the cap, then
/// takes "equal jitter": the wait is b * (1 - u / 2) with u ~ U[0,1) drawn
/// from the hash, so it lies in (b/2, b].
struct RetryPolicy {
  /// Total attempts per call, including the first. <= 1 disables retries.
  int max_attempts = 4;
  double initial_backoff_ms = 1.0;
  /// Ceiling for a single backoff interval (pre-jitter).
  double max_backoff_ms = 64.0;

  /// The backoff before attempt `attempt + 1` (so attempt >= 1), jittered
  /// deterministically by `hash`.
  double BackoffMs(int attempt, uint64_t hash) const;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_RETRY_POLICY_H_
