#include "reference/enumerate.h"

#include "base/logging.h"

namespace planorder::core {

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

}  // namespace planorder::core

namespace planorder::reformulation {

StatusOr<std::vector<QueryPlan>> EnumerateSoundPlans(
    const datalog::ConjunctiveQuery& query, const datalog::Catalog& catalog) {
  PLANORDER_ASSIGN_OR_RETURN(BucketResult buckets, BuildBuckets(query, catalog));
  std::vector<QueryPlan> plans;
  for (const auto& bucket : buckets.buckets) {
    if (bucket.empty()) return plans;  // some subgoal unservable: no plans
  }
  std::vector<size_t> cursor(buckets.buckets.size(), 0);
  std::vector<datalog::SourceId> choice(buckets.buckets.size());
  while (true) {
    for (size_t b = 0; b < buckets.buckets.size(); ++b) {
      choice[b] = buckets.buckets[b][cursor[b]];
    }
    PLANORDER_ASSIGN_OR_RETURN(std::optional<QueryPlan> plan,
                               BuildSoundPlan(query, catalog, choice));
    if (plan.has_value()) plans.push_back(std::move(*plan));
    size_t b = 0;
    for (; b < buckets.buckets.size(); ++b) {
      if (++cursor[b] < buckets.buckets[b].size()) break;
      cursor[b] = 0;
    }
    if (b == buckets.buckets.size()) break;
  }
  return plans;
}

}  // namespace planorder::reformulation
