#include "anyk/weights.h"

#include <cmath>
#include <limits>
#include <string>

#include "base/logging.h"

namespace planorder::anyk {

std::string AggregationName(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kSum:
      return "sum";
    case Aggregation::kMax:
      return "max";
  }
  return "unknown";
}

StatusOr<Aggregation> AggregationFromName(const std::string& name) {
  if (name == "sum") return Aggregation::kSum;
  if (name == "max") return Aggregation::kMax;
  return InvalidArgumentError("unknown aggregation '" + name + "'");
}

namespace {

/// splitmix64: the standard 64-bit finalizer-style mixer. Local copy so the
/// weight function stays a leaf dependency (base + datalog only).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool IsPowerOfTwo(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return false;
  int exponent = 0;
  return std::frexp(value, &exponent) == 0.5;
}

}  // namespace

Status ValidateWeightOptions(const WeightOptions& options) {
  if (!IsPowerOfTwo(options.scale)) {
    return InvalidArgumentError(
        "WeightOptions::scale must be a finite positive power of two, got " +
        std::to_string(options.scale));
  }
  return OkStatus();
}

double TupleWeight(const WeightOptions& options,
                   const std::vector<datalog::Term>& tuple) {
  PLANORDER_CHECK(IsPowerOfTwo(options.scale))
      << "WeightOptions::scale must be a positive power of two, got "
      << options.scale;
  size_t content = 0x9e3779b97f4a7c15ull;
  for (const datalog::Term& term : tuple) term.HashInto(content);
  const uint64_t mixed = Mix64(Mix64(options.seed) ^ uint64_t(content));
  // Top 20 bits -> k * 2^-20: a dyadic rational whose sums stay exact in
  // IEEE double up to millions of addends (see WeightOptions).
  const uint64_t quantized = mixed >> 44;
  return double(quantized) * std::ldexp(1.0, -20) * options.scale;
}

double AggregationIdentity(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kSum:
      return 0.0;
    case Aggregation::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double AggregationCombine(Aggregation aggregation, double a, double b) {
  switch (aggregation) {
    case Aggregation::kSum:
      return a + b;
    case Aggregation::kMax:
      return a > b ? a : b;
  }
  return a;
}

}  // namespace planorder::anyk
