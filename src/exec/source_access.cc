#include "exec/source_access.h"

#include <algorithm>

namespace planorder::exec {

Status AccessibleSource::Add(std::vector<datalog::Term> tuple) {
  if (tuple.size() != arity_) {
    return InvalidArgumentError("source '" + name_ + "' expects arity " +
                                std::to_string(arity_));
  }
  for (const datalog::Term& t : tuple) {
    if (!t.IsGround()) {
      return InvalidArgumentError("source tuples must be ground");
    }
  }
  for (const auto& existing : tuples_) {
    if (existing == tuple) return OkStatus();
  }
  tuples_.push_back(std::move(tuple));
  indexes_.clear();  // rebuilt lazily
  return OkStatus();
}

Status AccessibleSource::set_binding_pattern(std::string pattern) {
  if (pattern.size() != arity_) {
    return InvalidArgumentError("binding pattern '" + pattern +
                                "' does not match arity of '" + name_ + "'");
  }
  for (char c : pattern) {
    if (c != 'b' && c != 'f') {
      return InvalidArgumentError("binding patterns use only 'b' and 'f'");
    }
  }
  binding_pattern_ = std::move(pattern);
  return OkStatus();
}

Status AccessibleSource::ValidateBindings(
    const std::vector<int>& positions) const {
  for (size_t pos = 0; pos < binding_pattern_.size(); ++pos) {
    if (binding_pattern_[pos] == 'b' &&
        !std::binary_search(positions.begin(), positions.end(),
                            static_cast<int>(pos))) {
      return FailedPreconditionError(
          "source '" + name_ + "' requires position " + std::to_string(pos) +
          " bound; order the plan with FindExecutableOrder");
    }
  }
  return OkStatus();
}

const AccessibleSource::Index& AccessibleSource::IndexFor(
    const std::vector<int>& positions) {
  auto [it, inserted] = indexes_.try_emplace(positions);
  if (inserted) {
    for (const auto& tuple : tuples_) {
      std::vector<datalog::Term> key;
      key.reserve(positions.size());
      for (int p : positions) key.push_back(tuple[static_cast<size_t>(p)]);
      it->second[std::move(key)].push_back(tuple);
    }
  }
  return it->second;
}

StatusOr<std::vector<std::vector<datalog::Term>>> AccessibleSource::FetchBatch(
    const BindingBatch& batch) {
  std::vector<std::vector<datalog::Term>> result;
  if (batch.empty()) return result;
  // IndexFor reads tuple[p] for every bound position p, and one index serves
  // one position set, so check the set before any lookup.
  const std::vector<int>& positions = batch.positions();
  for (size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] < 0 || static_cast<size_t>(positions[i]) >= arity_) {
      return InvalidArgumentError(
          "FetchBatch against '" + name_ + "' binds position " +
          std::to_string(positions[i]) + " outside arity " +
          std::to_string(arity_));
    }
    if (i > 0 && positions[i] <= positions[i - 1]) {
      return InvalidArgumentError(
          "FetchBatch against '" + name_ +
          "': bound positions must be strictly increasing");
    }
  }
  if (positions.empty()) return tuples_;
  const Index& index = IndexFor(positions);
  for (const std::vector<datalog::Term>& values : batch.combinations()) {
    auto rows = index.find(values);
    if (rows == index.end()) continue;
    result.insert(result.end(), rows->second.begin(), rows->second.end());
  }
  return result;
}

StatusOr<AccessibleSource*> SourceRegistry::Register(std::string name,
                                                     size_t arity) {
  auto [it, inserted] =
      sources_.try_emplace(name, AccessibleSource(name, arity));
  if (!inserted) {
    return InvalidArgumentError("source '" + name + "' registered twice");
  }
  return &it->second;
}

AccessibleSource* SourceRegistry::Find(const std::string& name) {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : &it->second;
}

const AccessibleSource* SourceRegistry::Find(const std::string& name) const {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : &it->second;
}

std::vector<std::string> SourceRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, unused] : sources_) names.push_back(name);
  return names;
}

StatusOr<SourceRegistry> BuildSourceRegistry(const datalog::Catalog& catalog,
                                             const datalog::Database& facts) {
  SourceRegistry registry;
  for (datalog::SourceId id = 0; id < catalog.num_sources(); ++id) {
    const datalog::SourceDescription& description = catalog.source(id);
    PLANORDER_ASSIGN_OR_RETURN(
        AccessibleSource * source,
        registry.Register(description.name, description.view.head.args.size()));
    for (const auto& tuple : facts.TuplesFor(description.name)) {
      PLANORDER_RETURN_IF_ERROR(source->Add(tuple));
    }
  }
  return registry;
}

}  // namespace planorder::exec
