#ifndef PLANORDER_ANYK_WEIGHTS_H_
#define PLANORDER_ANYK_WEIGHTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "datalog/term.h"

namespace planorder::anyk {

/// Monotone aggregation of per-tuple weights into a join-result weight. Both
/// are commutative monoids whose combine is monotone in each argument, the
/// property the any-k successor generation relies on (replacing a subtree
/// solution with a lower-weighted one never raises the aggregate).
enum class Aggregation {
  kSum,  // answer weight = sum of its witness tuples' weights
  kMax,  // answer weight = best single witness tuple weight
};

/// Stable name ("sum"/"max") and its inverse.
std::string AggregationName(Aggregation aggregation);
StatusOr<Aggregation> AggregationFromName(const std::string& name);

/// Per-tuple weight assignment for ranked (any-k) enumeration.
///
/// A weight is a pure content hash of (seed, tuple constants): every source
/// shipping the same tuple agrees on its weight, which is what makes the
/// answer weight well-defined across plans (different rewritings joining the
/// same underlying tuples aggregate identical values) and makes relabeling
/// sources a no-op for ranked emission.
///
/// Determinism contract: raw weights are dyadic rationals k * 2^-20 with
/// k < 2^20, so IEEE-double sums of up to ~2^26 tuples are exact and
/// associativity holds bit-for-bit — the DP over the join tree, the lazy
/// enumerator and the brute-force oracle all compute identical weight bits
/// no matter how they parenthesize the aggregation. `scale` must be a power
/// of two (exact multiply) — the metamorphic monotone-transform knob.
struct WeightOptions {
  uint64_t seed = 1;
  Aggregation aggregation = Aggregation::kSum;
  /// Power-of-two multiplier applied to every tuple weight (1.0 = raw
  /// weights in [0, 1)). Entry points reject anything else with
  /// ValidateWeightOptions; TupleWeight checks it as an invariant.
  double scale = 1.0;
};

/// kInvalidArgument unless `options.scale` is a finite positive power of two.
/// Every ranked entry point (RelationIndex, AnyKEnumerator,
/// RankedAnswerStream, the brute-force oracle) calls it before weighing a
/// tuple, so a bad option from a caller becomes a Status, not an abort.
Status ValidateWeightOptions(const WeightOptions& options);

/// The weight of one ground tuple: a dyadic rational in [0, scale) derived by
/// content-hashing the tuple under `options.seed`. Pure function of its
/// arguments; independent of source name, predicate name and container
/// order.
double TupleWeight(const WeightOptions& options,
                   const std::vector<datalog::Term>& tuple);

/// The aggregation's identity element (0 for sum, -inf for max).
double AggregationIdentity(Aggregation aggregation);

/// Combines two aggregates (a + b for sum, max(a, b) for max).
double AggregationCombine(Aggregation aggregation, double a, double b);

/// One ranked answer: a head instantiation and its (best-witness) weight.
struct RankedAnswer {
  std::vector<datalog::Term> tuple;
  double weight = 0.0;

  friend bool operator==(const RankedAnswer& a, const RankedAnswer& b) {
    return a.weight == b.weight && a.tuple == b.tuple;
  }
};

/// The canonical ranked emission order: weight descending, ties broken by
/// tuple lexicographically ascending. Shared by the brute-force oracle and
/// the ranked frontier merge so both produce byte-identical sequences.
inline bool RankedBefore(const RankedAnswer& a, const RankedAnswer& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.tuple < b.tuple;
}

}  // namespace planorder::anyk

#endif  // PLANORDER_ANYK_WEIGHTS_H_
