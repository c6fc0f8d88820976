#include "core/drips.h"

#include <algorithm>

#include "base/logging.h"
#include "core/evaluate.h"
#include "core/frontier_heap.h"

namespace planorder::core {
namespace {

struct Candidate {
  AbstractPlan plan;
  Interval utility;
  bool concrete = false;
  bool alive = true;
};

}  // namespace

StatusOr<DripsResult> RunDrips(const std::vector<AbstractPlan>& starts,
                               const utility::UtilityModel& model,
                               const utility::ExecutionContext& ctx,
                               int64_t* evaluations) {
  if (starts.empty()) return NotFoundError("no plans to order");
  std::vector<Candidate> candidates;
  candidates.reserve(starts.size() + 64);
  // Candidate utilities never change within one run, so selection is two
  // static lazy heaps (core/frontier_heap.h) over candidate indices instead
  // of a full rescan per refinement: abstract candidates by (upper bound
  // desc, width desc, index asc) — the rescan's exact tie-break — concrete
  // ones by (exact utility desc, index asc). Eliminated candidates just drop
  // their alive flag; their entries die lazily at the next Peek.
  FrontierHeap abstract_heap;
  FrontierHeap concrete_heap;
  const auto entry_live = [&candidates](const FrontierHeap::Entry& entry) {
    return candidates[entry.slot].alive;
  };
  // All bookkeeping is by index: add_candidates may grow (and reallocate)
  // `candidates`, so no reference or pointer into it survives an insertion.
  auto add_candidates = [&](std::vector<AbstractPlan> plans) {
    std::vector<size_t> added;
    added.reserve(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      Candidate c;
      const std::vector<const stats::StatSummary*> summaries =
          plans[i].Summaries();
      c.utility = EvaluateCounted(
          utility::NodeSpan(summaries.data(), summaries.size()), model, ctx,
          evaluations);
      c.concrete = plans[i].IsConcrete();
      c.plan = std::move(plans[i]);
      candidates.push_back(std::move(c));
      const size_t index = candidates.size() - 1;
      added.push_back(index);
      FrontierHeap::Entry entry;
      entry.rank = index;
      entry.slot = static_cast<uint32_t>(index);
      const Candidate& added_c = candidates[index];
      if (added_c.concrete) {
        entry.key1 = added_c.utility.lo();
        concrete_heap.Push(entry);
      } else {
        entry.key1 = added_c.utility.hi();
        entry.key2 = added_c.utility.width();
        abstract_heap.Push(entry);
      }
    }
    return added;
  };

  // Domination is static within one run (utilities don't change), so each
  // candidate is compared against the rest exactly once, when it enters.
  auto eliminate_against_all = [&](size_t fresh) {
    for (size_t i = 0; i < candidates.size() && candidates[fresh].alive; ++i) {
      if (i == fresh || !candidates[i].alive) continue;
      const Interval& a = candidates[i].utility;
      const Interval& b = candidates[fresh].utility;
      if (a.DominatesOrEquals(b)) {
        // Mutual (point-tied) domination keeps the earlier candidate.
        candidates[fresh].alive = false;
      } else if (b.DominatesOrEquals(a)) {
        candidates[i].alive = false;
      }
    }
  };

  for (size_t fresh : add_candidates(starts)) eliminate_against_all(fresh);

  while (true) {
    const FrontierHeap::Entry* top = abstract_heap.Peek(entry_live);
    if (top == nullptr) {
      const FrontierHeap::Entry* best = concrete_heap.Peek(entry_live);
      PLANORDER_CHECK(best != nullptr);
      DripsResult result;
      result.winner = candidates[best->slot].plan;
      result.plan = candidates[best->slot].plan.ToConcrete();
      result.utility = candidates[best->slot].utility.lo();
      return result;
    }
    const size_t best_abstract = top->slot;
    abstract_heap.PopTop();

    // Refinement: replace the most promising abstract plan by the two plans
    // splitting its largest abstract source.
    const AbstractionForest& forest = *candidates[best_abstract].plan.forest;
    const int bucket =
        RefinementBucket(forest, candidates[best_abstract].plan.nodes);
    PLANORDER_CHECK_GE(bucket, 0);
    const int node = candidates[best_abstract].plan.nodes[bucket];
    AbstractPlan left = candidates[best_abstract].plan;
    left.nodes[bucket] = forest.left(node);
    AbstractPlan right = candidates[best_abstract].plan;
    right.nodes[bucket] = forest.right(node);
    candidates[best_abstract].alive = false;
    std::vector<AbstractPlan> children;
    children.push_back(std::move(left));
    children.push_back(std::move(right));
    for (size_t fresh : add_candidates(std::move(children))) {
      eliminate_against_all(fresh);
    }
  }
}

}  // namespace planorder::core
