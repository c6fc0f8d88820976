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

StatusOr<std::unique_ptr<Orderer>> IDripsRebuildOrderer::Create(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, AbstractionHeuristic heuristic) {
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  auto orderer = std::unique_ptr<IDripsRebuildOrderer>(
      new IDripsRebuildOrderer(workload, model, heuristic));
  for (PlanSpace& space : spaces) orderer->AddSpace(std::move(space));
  return std::unique_ptr<Orderer>(std::move(orderer));
}

void IDripsRebuildOrderer::AddSpace(PlanSpace space) {
  auto entry = std::make_unique<SpaceEntry>();
  entry->forest = AbstractionForest::Build(ctx().workload(), space, heuristic_);
  entry->space = std::move(space);
  spaces_.push_back(std::move(entry));
}

StatusOr<OrderedPlan> IDripsRebuildOrderer::ComputeNext() {
  if (spaces_.empty()) return NotFoundError("plan spaces exhausted");
  std::vector<AbstractPlan> starts;
  starts.reserve(spaces_.size());
  for (const std::unique_ptr<SpaceEntry>& entry : spaces_) {
    AbstractPlan top;
    top.forest = &entry->forest;
    top.nodes.resize(entry->forest.num_buckets());
    for (int b = 0; b < entry->forest.num_buckets(); ++b) {
      top.nodes[b] = entry->forest.root(b);
    }
    starts.push_back(std::move(top));
  }
  PLANORDER_ASSIGN_OR_RETURN(DripsResult best,
                             RunDrips(starts, model(), ctx(), &evaluations_));

  // Remove the winner from its space and re-abstract the split spaces.
  size_t winner_index = spaces_.size();
  for (size_t i = 0; i < spaces_.size(); ++i) {
    if (&spaces_[i]->forest == best.winner.forest) {
      winner_index = i;
      break;
    }
  }
  PLANORDER_CHECK_LT(winner_index, spaces_.size());
  const PlanSpace removed = std::move(spaces_[winner_index]->space);
  spaces_.erase(spaces_.begin() + static_cast<ptrdiff_t>(winner_index));
  for (PlanSpace& split : SplitAround(removed, best.plan)) {
    AddSpace(std::move(split));
  }
  return OrderedPlan{best.plan, best.utility};
}

}  // namespace planorder::core
