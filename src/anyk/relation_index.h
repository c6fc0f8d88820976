#ifndef PLANORDER_ANYK_RELATION_INDEX_H_
#define PLANORDER_ANYK_RELATION_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anyk/weights.h"
#include "base/status.h"
#include "datalog/evaluator.h"

namespace planorder::anyk {

/// The source relations of a ranked query, scanned and weighed once and
/// shared by every AnyKEnumerator built over them.
///
/// Every ground term of an indexed relation is interned to a dense int32 id
/// (ids are assigned in first-seen order of the row scan; equal terms get
/// equal ids, so id equality is term equality). The first time a
/// (predicate, arity) is asked for, its rows are copied out of the database
/// as flat id arrays, in the database's row order, together with each row's
/// TupleWeight. Later requests for the same relation return the same rows,
/// so a ranked session over many plans that share sources pays the scan,
/// the interning and the weight hashing once per relation instead of once
/// per plan atom.
///
/// `facts` must outlive the index and must not change while it lives: rows
/// keep pointers to the database's tuples for tie-breaking on the original
/// terms.
class RelationIndex {
 public:
  /// One (predicate, arity) relation: `size()` rows of `arity` ids each.
  struct Relation {
    int arity = 0;
    std::vector<int32_t> ids;  // row-major: row r is ids[r * arity, +arity)
    std::vector<double> weights;  // TupleWeight of each row
    /// The database tuple each row came from (for term-order tie-breaks).
    std::vector<const std::vector<datalog::Term>*> tuples;

    size_t size() const { return weights.size(); }
    const int32_t* row(size_t r) const { return ids.data() + r * arity; }
  };

  /// kInvalidArgument when `options` fails ValidateWeightOptions.
  static StatusOr<std::unique_ptr<RelationIndex>> Create(
      const datalog::Database& facts, const WeightOptions& options);

  /// The relation of `predicate` restricted to rows of `arity`, indexing it
  /// on first use. The reference stays valid for the index's lifetime.
  const Relation& Get(const std::string& predicate, int arity);

  /// The id of a ground term, or -1 when no indexed row contains it. A term
  /// that only occurs in a relation not yet indexed is also -1: callers Get
  /// the relation they filter before looking up its constants.
  int32_t Find(const datalog::Term& term) const;

  /// The term behind an id returned by Find or stored in a Relation.
  const datalog::Term& term(int32_t id) const { return *terms_[id]; }

  const WeightOptions& options() const { return options_; }

  /// Distinct (predicate, arity) relations scanned and weighed so far.
  size_t relations_indexed() const { return relations_.size(); }

 private:
  RelationIndex(const datalog::Database& facts, const WeightOptions& options)
      : facts_(facts), options_(options) {}

  int32_t Intern(const datalog::Term& term);

  const datalog::Database& facts_;
  WeightOptions options_;
  std::map<std::pair<std::string, int>, Relation> relations_;
  /// Term -> id. Keyed lookup/insert only; ids follow the row scan order.
  // detlint: order-insensitive(keyed intern lookups only; never iterated)
  std::unordered_map<datalog::Term, int32_t, datalog::TermHash> ids_;
  /// id -> term, pointing at the map's keys (stable across rehashing).
  std::vector<const datalog::Term*> terms_;
};

}  // namespace planorder::anyk

#endif  // PLANORDER_ANYK_RELATION_INDEX_H_
