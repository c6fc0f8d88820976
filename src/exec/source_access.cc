#include "exec/source_access.h"

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
    const std::map<int, datalog::Term>& bindings) const {
  for (size_t pos = 0; pos < binding_pattern_.size(); ++pos) {
    if (binding_pattern_[pos] == 'b' &&
        !bindings.contains(static_cast<int>(pos))) {
      return FailedPreconditionError(
          "source '" + name_ + "' requires position " + std::to_string(pos) +
          " bound; order the plan with FindExecutableOrder");
    }
  }
  return OkStatus();
}

std::string AccessibleSource::KeyFor(const std::vector<int>& positions,
                                     const std::vector<datalog::Term>& tuple) {
  std::string key;
  for (int p : positions) {
    key += tuple[static_cast<size_t>(p)].ToString();
    key += '\x1f';
  }
  return key;
}

std::string AccessibleSource::KeyFor(
    const std::map<int, datalog::Term>& bindings) {
  std::string key;
  for (const auto& [unused, value] : bindings) {
    key += value.ToString();
    key += '\x1f';
  }
  return key;
}

const std::vector<std::vector<datalog::Term>>& AccessibleSource::Lookup(
    const std::map<int, datalog::Term>& bindings) {
  if (bindings.empty()) return tuples_;
  // Index key over the bound position set (e.g. "0" or "0,2").
  std::string position_key;
  std::vector<int> positions;
  for (const auto& [position, unused] : bindings) {
    positions.push_back(position);
    position_key += std::to_string(position);
    position_key += ',';
  }
  auto [it, inserted] = indexes_.try_emplace(position_key);
  if (inserted) {
    for (const auto& tuple : tuples_) {
      it->second.rows[KeyFor(positions, tuple)].push_back(tuple);
    }
  }
  auto rows = it->second.rows.find(KeyFor(bindings));
  if (rows == it->second.rows.end()) return empty_;
  return rows->second;
}

StatusOr<std::vector<std::vector<datalog::Term>>> AccessibleSource::FetchBatch(
    const std::vector<std::map<int, datalog::Term>>& batch) {
  std::vector<std::vector<datalog::Term>> result;
  if (batch.empty()) return result;
  // Enforce the documented precondition: one batched semi-join ships one
  // bound-position set. A mixed batch would silently consult different
  // indexes per combination, so reject it outright.
  for (size_t i = 1; i < batch.size(); ++i) {
    const auto& expect = batch.front();
    const auto& got = batch[i];
    bool same = expect.size() == got.size();
    if (same) {
      auto e = expect.begin();
      for (auto g = got.begin(); g != got.end(); ++g, ++e) {
        if (e->first != g->first) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      return InvalidArgumentError(
          "FetchBatch against '" + name_ +
          "': combination " + std::to_string(i) +
          " binds a different position set than combination 0");
    }
  }
  // Lookup indexes tuple[p] for every bound position p.
  for (const auto& [position, unused] : batch.front()) {
    if (position < 0 || static_cast<size_t>(position) >= arity_) {
      return InvalidArgumentError(
          "FetchBatch against '" + name_ + "' binds position " +
          std::to_string(position) + " outside arity " +
          std::to_string(arity_));
    }
  }
  // detlint: order-insensitive(membership-only dedup; result keeps row order)
  std::unordered_map<std::string, bool> seen;
  for (const auto& bindings : batch) {
    for (const auto& row : Lookup(bindings)) {
      std::string key;
      for (const datalog::Term& t : row) {
        key += t.ToString();
        key += '\x1f';
      }
      if (seen.emplace(std::move(key), true).second) result.push_back(row);
    }
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

}  // namespace planorder::exec
