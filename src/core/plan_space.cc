#include "core/plan_space.h"

#include <algorithm>

#include "base/logging.h"

namespace planorder::core {

PlanSpace PlanSpace::FullSpace(const stats::Workload& workload) {
  PlanSpace space;
  space.buckets.resize(workload.num_buckets());
  for (int b = 0; b < workload.num_buckets(); ++b) {
    space.buckets[b].resize(workload.bucket_size(b));
    for (int i = 0; i < workload.bucket_size(b); ++i) space.buckets[b][i] = i;
  }
  return space;
}

uint64_t PlanSpace::NumPlans() const {
  uint64_t n = 1;
  for (const auto& bucket : buckets) n *= bucket.size();
  return n;
}

bool PlanSpace::Contains(const ConcretePlan& plan) const {
  if (plan.size() != buckets.size()) return false;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (std::find(buckets[b].begin(), buckets[b].end(), plan[b]) ==
        buckets[b].end()) {
      return false;
    }
  }
  return true;
}

std::string PlanSpace::ToString() const {
  std::string out = "{";
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (b > 0) out += " x ";
    out += "[";
    for (size_t i = 0; i < buckets[b].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(buckets[b][i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

StatusOr<std::vector<PlanSpace>> ValidateSpaces(
    const stats::Workload& workload, std::vector<PlanSpace> spaces) {
  // Every orderer's ExecutionContext compiles the workload's coverage
  // universe, which has one bitmask dimension per bucket.
  if (workload.num_buckets() > stats::BitmaskUniverse::kMaxDims) {
    return InvalidArgumentError(
        "query has " + std::to_string(workload.num_buckets()) +
        " relational subgoals; at most " +
        std::to_string(stats::BitmaskUniverse::kMaxDims) + " are supported");
  }
  std::vector<PlanSpace> kept;
  kept.reserve(spaces.size());
  for (PlanSpace& space : spaces) {
    if (space.num_buckets() != workload.num_buckets()) {
      return InvalidArgumentError("plan space does not match the workload");
    }
    for (const auto& bucket : space.buckets) {
      for (int s : bucket) {
        const size_t b = static_cast<size_t>(&bucket - space.buckets.data());
        if (s < 0 || s >= workload.bucket_size(static_cast<int>(b))) {
          return InvalidArgumentError("plan space names an unknown source");
        }
      }
    }
    if (!space.IsEmpty()) kept.push_back(std::move(space));
  }
  return kept;
}

std::vector<ConcretePlan> EnumeratePlans(const PlanSpace& space) {
  PLANORDER_CHECK(!space.IsEmpty())
      << "EnumeratePlans: empty space " << space.ToString();
  std::vector<ConcretePlan> plans;
  plans.reserve(space.NumPlans());
  ConcretePlan plan(space.buckets.size());
  std::vector<size_t> cursor(space.buckets.size(), 0);
  while (true) {
    for (size_t b = 0; b < space.buckets.size(); ++b) {
      plan[b] = space.buckets[b][cursor[b]];
    }
    plans.push_back(plan);
    size_t b = 0;
    for (; b < space.buckets.size(); ++b) {
      if (++cursor[b] < space.buckets[b].size()) break;
      cursor[b] = 0;
    }
    if (b == space.buckets.size()) break;
  }
  return plans;
}

std::vector<PlanSpace> SplitAround(const PlanSpace& space,
                                   const ConcretePlan& plan) {
  PLANORDER_CHECK(space.Contains(plan))
      << "SplitAround: plan not in space " << space.ToString();
  std::vector<PlanSpace> result;
  for (size_t i = 0; i < space.buckets.size(); ++i) {
    std::vector<int> without;
    without.reserve(space.buckets[i].size() - 1);
    for (int s : space.buckets[i]) {
      if (s != plan[i]) without.push_back(s);
    }
    if (without.empty()) continue;
    PlanSpace split;
    split.buckets.reserve(space.buckets.size());
    for (size_t b = 0; b < i; ++b) split.buckets.push_back({plan[b]});
    split.buckets.push_back(std::move(without));
    for (size_t b = i + 1; b < space.buckets.size(); ++b) {
      split.buckets.push_back(space.buckets[b]);
    }
    result.push_back(std::move(split));
  }
  return result;
}

}  // namespace planorder::core
