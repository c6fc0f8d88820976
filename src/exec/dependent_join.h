#ifndef PLANORDER_EXEC_DEPENDENT_JOIN_H_
#define PLANORDER_EXEC_DEPENDENT_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "exec/binding_batch.h"
#include "exec/source_access.h"

namespace planorder::exec {

/// Per-atom record of a dependent-join execution.
struct AtomAccess {
  std::string source;
  /// Number of source calls (distinct binding combinations fed in).
  int64_t calls = 0;
  /// Tuples the source shipped back across those calls.
  int64_t tuples_shipped = 0;
};

/// The execution trace of one plan: one entry per body atom, in execution
/// order. `ModeledCost` prices it exactly the way cost measure (2) prices a
/// plan — h per call plus alpha per shipped tuple — so traces are directly
/// comparable against the utility model's estimate.
struct ExecutionTrace {
  std::vector<AtomAccess> atoms;

  int64_t TotalCalls() const;
  int64_t TotalTuplesShipped() const;
  /// sum over atoms of (calls * access_overhead + tuples * alpha(atom)).
  double ModeledCost(double access_overhead,
                     const std::vector<double>& alpha_per_atom) const;
};

/// The source access behind ExecutePlanDependent: resolves each body atom's
/// predicate to its source and ships it one batch of binding combinations.
/// Execution over a SourceRegistry makes one plain call per batch; the
/// resilient runtime (runtime::SourceRuntime) partitions each batch across
/// a thread pool, with retries.
class BatchFetcher {
 public:
  virtual ~BatchFetcher() = default;

  /// The source serving `predicate` (its arity and binding pattern), or
  /// nullptr when none is registered.
  virtual const AccessibleSource* Find(const std::string& predicate) const = 0;

  /// Ships the non-empty `batch` to `predicate`'s source and returns the
  /// row sequence of AccessibleSource::FetchBatch. `*calls` receives the
  /// number of source calls made.
  virtual StatusOr<std::vector<std::vector<datalog::Term>>> Fetch(
      const std::string& predicate, const BindingBatch& batch,
      int64_t* calls) = 0;
};

/// Executes a rewriting p(Y) :- V1(U1), ..., Vn(Un) by left-to-right
/// *dependent joins*, the strategy cost measure (2) models: atom 1 is
/// fetched with its constant bindings, every later atom is called with the
/// distinct combinations of values flowing in from the prefix, shipped as
/// one batch (the semi-join "feed the titles into V_j"). Returns the
/// distinct head tuples and, optionally, the access trace — one entry per
/// body atom, also when the frontier drains early. On a failed fetch the
/// trace holds the atoms before it.
///
/// The rewriting must be safe and every body predicate served.
StatusOr<std::vector<std::vector<datalog::Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, BatchFetcher& sources,
    ExecutionTrace* trace = nullptr);

/// As above, against the registry's sources: one call per batch.
StatusOr<std::vector<std::vector<datalog::Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, SourceRegistry& sources,
    ExecutionTrace* trace = nullptr);

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_DEPENDENT_JOIN_H_
