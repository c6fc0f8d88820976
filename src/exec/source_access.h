#ifndef PLANORDER_EXEC_SOURCE_ACCESS_H_
#define PLANORDER_EXEC_SOURCE_ACCESS_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "datalog/term.h"
#include "exec/binding_batch.h"

namespace planorder::exec {

/// A queryable data source holding ground tuples, accessed by *binding
/// pattern*: the caller fixes values for some argument positions and the
/// source returns the matching tuples. Mirrors how a mediator actually
/// talks to autonomous sources ("give me the movies starring Ford") rather
/// than bulk-copying relations. Point lookups are served from hash indexes
/// built lazily per bound-position set.
class AccessibleSource {
 public:
  AccessibleSource(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }

  /// Access-pattern adornment ('b'/'f' per position; empty = all free).
  /// Mirrors datalog::SourceDescription::binding_pattern for enforcement at
  /// the access layer.
  Status set_binding_pattern(std::string pattern);
  const std::string& binding_pattern() const { return binding_pattern_; }

  /// OK when the bound `positions` cover every position the adornment
  /// requires.
  Status ValidateBindings(const std::vector<int>& positions) const;

  /// Adds a ground tuple (checked). Duplicates are kept out.
  Status Add(std::vector<datalog::Term> tuple);

  /// One *batched* access: ships all binding combinations at once (the
  /// semi-join of cost measure (2): "feed the titles into V_j") and returns
  /// the union of the matches in combination order, each combination's
  /// matches in load order. The rows are distinct: the tuples are, and
  /// distinct combinations match disjoint tuples. It is a single source call
  /// shipping the union's size — what the caller's exec::ExecutionTrace
  /// records. A batch over no positions is a full scan. An empty batch is a
  /// no-op returning nothing.
  ///
  /// The bound positions must be strictly increasing and lie in
  /// [0, arity); a batch breaking either is rejected with kInvalidArgument
  /// before any tuple is fetched.
  StatusOr<std::vector<std::vector<datalog::Term>>> FetchBatch(
      const BindingBatch& batch);

 private:
  /// Rows keyed by their values at one bound position set. Probed by key
  /// only; the rows vectors keep insertion (load) order.
  // detlint: order-insensitive(keyed probe only; never iterated)
  using Index = std::unordered_map<std::vector<datalog::Term>,
                                   std::vector<std::vector<datalog::Term>>,
                                   datalog::TermVectorHash>;

  /// The index over `positions` (built on first use).
  const Index& IndexFor(const std::vector<int>& positions);

  std::string name_;
  size_t arity_;
  std::string binding_pattern_;
  std::vector<std::vector<datalog::Term>> tuples_;
  std::map<std::vector<int>, Index> indexes_;
};

/// The mediator's view of the world: one AccessibleSource per source
/// relation name.
class SourceRegistry {
 public:
  /// Registers a new source; fails on duplicates.
  StatusOr<AccessibleSource*> Register(std::string name, size_t arity);

  /// Looks a source up, or nullptr.
  AccessibleSource* Find(const std::string& name);
  const AccessibleSource* Find(const std::string& name) const;

  /// Names of all registered sources, in registration-independent sorted
  /// order (used by wrappers that shadow every source, e.g.
  /// runtime::SourceRuntime).
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, AccessibleSource> sources_;
};

/// A registry with one source per catalog entry, its arity taken from the
/// view head, holding that source's tuples from `facts`.
StatusOr<SourceRegistry> BuildSourceRegistry(const datalog::Catalog& catalog,
                                             const datalog::Database& facts);

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_SOURCE_ACCESS_H_
