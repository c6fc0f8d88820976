#include "anyk/relation_index.h"

namespace planorder::anyk {

StatusOr<std::unique_ptr<RelationIndex>> RelationIndex::Create(
    const datalog::Database& facts, const WeightOptions& options) {
  PLANORDER_RETURN_IF_ERROR(ValidateWeightOptions(options));
  return std::unique_ptr<RelationIndex>(new RelationIndex(facts, options));
}

const RelationIndex::Relation& RelationIndex::Get(const std::string& predicate,
                                                  int arity) {
  auto [it, inserted] = relations_.try_emplace({predicate, arity});
  Relation& relation = it->second;
  if (!inserted) return relation;
  relation.arity = arity;
  for (const std::vector<datalog::Term>& tuple : facts_.TuplesFor(predicate)) {
    if (static_cast<int>(tuple.size()) != arity) continue;
    for (const datalog::Term& term : tuple) relation.ids.push_back(Intern(term));
    relation.weights.push_back(TupleWeight(options_, tuple));
    relation.tuples.push_back(&tuple);
  }
  return relation;
}

int32_t RelationIndex::Find(const datalog::Term& term) const {
  const auto it = ids_.find(term);
  return it == ids_.end() ? -1 : it->second;
}

int32_t RelationIndex::Intern(const datalog::Term& term) {
  auto [it, inserted] =
      ids_.try_emplace(term, static_cast<int32_t>(terms_.size()));
  if (inserted) terms_.push_back(&it->first);
  return it->second;
}

}  // namespace planorder::anyk
