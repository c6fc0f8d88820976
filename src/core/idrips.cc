#include "core/idrips.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/drips.h"
#include "core/evaluate.h"

namespace planorder::core {
namespace {

/// Hard cap on buckets per plan, matching UtilityModel::EvaluateConcrete's
/// stack buffer; lets refinement stage parent rows on the stack.
constexpr int kMaxBuckets = 16;

/// Abstract candidates refined per round (each contributes two children,
/// evaluated in target order).
constexpr size_t kRefineWidth = 8;

}  // namespace

StatusOr<std::unique_ptr<Orderer>> IDripsOrderer::Create(
    const stats::Workload* workload, utility::UtilityModel* model,
    std::vector<PlanSpace> spaces, const IDripsOptions& options) {
  if (!options.persistent_frontier) {
    return IDripsRebuildOrderer::Create(workload, model, std::move(spaces),
                                        options.heuristic);
  }
  PLANORDER_ASSIGN_OR_RETURN(spaces,
                             ValidateSpaces(*workload, std::move(spaces)));
  auto orderer =
      std::unique_ptr<IDripsOrderer>(new IDripsOrderer(workload, model));
  for (const PlanSpace& space : spaces) {
    orderer->forests_.push_back(std::make_unique<AbstractionForest>(
        AbstractionForest::Build(*workload, space, options.heuristic)));
  }
  return std::unique_ptr<Orderer>(std::move(orderer));
}

void IDripsOrderer::GrowFrontierArrays() {
  const size_t m = static_cast<size_t>(arena_.width());
  const size_t slots = arena_.num_slots();
  if (alive_.size() >= slots) return;
  summaries_.resize(slots * m);
  lo_.resize(slots);
  hi_.resize(slots);
  width_.resize(slots);
  eval_epoch_.resize(slots);
  eval_generation_.resize(slots);
  rank_.resize(slots);
  // resize() preserves existing counters; released slots keep theirs so a
  // reused slot cannot validate an entry pushed for its previous occupant.
  heap_version_.resize(slots, 0);
  forest_of_.resize(slots);
  concrete_.resize(slots);
  alive_.resize(slots, 0);
}

void IDripsOrderer::FillSlot(uint32_t slot) {
  const int m = arena_.width();
  const AbstractionForest& forest = *forests_[forest_of_[slot]];
  const uint32_t* row = arena_.row(slot);
  bool concrete = true;
  for (int b = 0; b < m; ++b) {
    const int node = static_cast<int>(row[b]);
    summaries_[static_cast<size_t>(slot) * static_cast<size_t>(m) +
               static_cast<size_t>(b)] = &forest.summary(node);
    concrete = concrete && forest.is_leaf(node);
  }
  concrete_[slot] = concrete ? 1 : 0;
}

void IDripsOrderer::PushHeapEntry(uint32_t slot) {
  FrontierHeap::Entry entry;
  entry.rank = rank_[slot];
  entry.slot = slot;
  entry.version = heap_version_[slot];
  if (concrete_[slot] != 0) {
    entry.key1 = lo_[slot];
    concrete_heap_.Push(entry);
  } else {
    entry.key1 = hi_[slot];
    entry.key2 = width_[slot];
    abstract_heap_.Push(entry);
  }
}

void IDripsOrderer::CommitCandidate(uint32_t slot, const Interval& utility) {
  lo_[slot] = utility.lo();
  hi_[slot] = utility.hi();
  width_[slot] = utility.width();
  eval_epoch_[slot] = static_cast<int64_t>(ctx().epoch());
  eval_generation_[slot] = ctx().external_generation();
  alive_[slot] = 1;
  ++heap_version_[slot];
  PushHeapEntry(slot);
}

void IDripsOrderer::MaybeCompactHeaps() {
  // Lazy deletion leaves one dead entry behind per re-evaluation, overwrite
  // or release; compact when they clearly dominate the heap.
  const size_t live = arena_.num_live();
  const auto live_fn = [this](const FrontierHeap::Entry& entry) {
    return EntryLive(entry);
  };
  if (abstract_heap_.size() > 4 * live + 64) abstract_heap_.Compact(live_fn);
  if (concrete_heap_.size() > 4 * live + 64) concrete_heap_.Compact(live_fn);
}

ConcretePlan IDripsOrderer::SlotToConcrete(uint32_t slot) const {
  const int m = arena_.width();
  const AbstractionForest& forest = *forests_[forest_of_[slot]];
  const uint32_t* row = arena_.row(slot);
  ConcretePlan plan(static_cast<size_t>(m));
  for (int b = 0; b < m; ++b) {
    plan[static_cast<size_t>(b)] =
        forest.leaf_source(static_cast<int>(row[b]));
  }
  return plan;
}

void IDripsOrderer::SeedFrontier() {
  frontier_seeded_ = true;
  if (forests_.empty()) return;
  const int m = forests_[0]->num_buckets();
  PLANORDER_CHECK_LE(m, kMaxBuckets);
  arena_.Reset(m);
  for (size_t f = 0; f < forests_.size(); ++f) {
    const uint32_t slot = arena_.Allocate();
    GrowFrontierArrays();
    uint32_t* row = arena_.row(slot);
    const AbstractionForest& forest = *forests_[f];
    for (int b = 0; b < m; ++b) {
      row[b] = static_cast<uint32_t>(forest.root(b));
    }
    forest_of_[slot] = static_cast<uint32_t>(f);
    // Seed ranks are the legacy frontier's initial vector positions.
    rank_[slot] = slot;
  }
  next_rank_ = arena_.num_slots();
  for (uint32_t slot = 0; slot < arena_.num_slots(); ++slot) {
    FillSlot(slot);
    CommitCandidate(slot, EvaluateSlot(slot));
  }
  refreshed_generation_ = ctx().external_generation();
}

bool IDripsOrderer::IsStale(uint32_t slot) {
  const int64_t epoch = static_cast<int64_t>(ctx().epoch());
  if (eval_epoch_[slot] == epoch) return false;
  if (model().fully_independent()) {
    eval_epoch_[slot] = epoch;
    return false;
  }
  const size_t m = static_cast<size_t>(arena_.width());
  const std::vector<ConcretePlan>& executed = ctx().executed();
  const utility::NodeSpan span(&summaries_[static_cast<size_t>(slot) * m], m);
  for (size_t e = static_cast<size_t>(eval_epoch_[slot]); e < executed.size();
       ++e) {
    if (!model().GroupIndependentOf(span, executed[e])) return true;
  }
  eval_epoch_[slot] = epoch;
  return false;
}

Interval IDripsOrderer::EvaluateSlot(uint32_t slot) {
  const size_t m = static_cast<size_t>(arena_.width());
  return EvaluateCounted(
      utility::NodeSpan(&summaries_[static_cast<size_t>(slot) * m], m),
      model(), ctx(), &evaluations_);
}

void IDripsOrderer::RefreshSlot(uint32_t slot) {
  const Interval u = EvaluateSlot(slot);
  eval_epoch_[slot] = static_cast<int64_t>(ctx().epoch());
  eval_generation_[slot] = ctx().external_generation();
  // Push a fresh heap entry only when the bounds actually moved; an
  // unchanged candidate's existing entry stays valid (version untouched).
  if (u.lo() != lo_[slot] || u.hi() != hi_[slot]) {
    lo_[slot] = u.lo();
    hi_[slot] = u.hi();
    width_[slot] = u.width();
    ++heap_version_[slot];
    PushHeapEntry(slot);
  }
}

void IDripsOrderer::RefreshStaleCandidates() {
  // Fully independent measures: no executed plan ever changes a utility.
  if (model().fully_independent()) return;
  const int64_t generation = ctx().external_generation();
  // A candidate proven group-independent of everything executed since its
  // evaluation keeps its utility and just fast-forwards its epoch (IsStale):
  // this is the incremental win over rebuilding the forests every emission.
  // A flipped cross-session cache bit changes residual costs everywhere; the
  // group-independence test only covers this session's executions, so a
  // generation mismatch forces re-evaluation unconditionally. Stale
  // candidates are re-evaluated in slot order.
  for (uint32_t slot = 0; slot < arena_.num_slots(); ++slot) {
    if (alive_[slot] == 0) continue;
    if (eval_generation_[slot] != generation || IsStale(slot)) {
      RefreshSlot(slot);
    }
  }
}

StatusOr<OrderedPlan> IDripsOrderer::ComputeNext() {
  if (!frontier_seeded_) SeedFrontier();
  if (arena_.num_live() == 0) return NotFoundError("plan spaces exhausted");
  // Under diminishing returns a candidate's utility only falls as plans
  // execute, so stale heap keys are sound upper bounds and candidates are
  // brought current lazily, when they surface at a heap top. Other models
  // (and generation flips, which can raise utilities) take the eager full
  // refresh.
  const bool lazy = model().diminishing_returns();
  if (!lazy || ctx().external_generation() != refreshed_generation_) {
    RefreshStaleCandidates();
    refreshed_generation_ = ctx().external_generation();
  }
  MaybeCompactHeaps();
  const auto live = [this](const FrontierHeap::Entry& entry) {
    return EntryLive(entry);
  };
  const int m = arena_.width();
  while (true) {
    // The frontier partitions the un-emitted plans and every enclosure at a
    // heap top is settled current, so the best concrete candidate whose
    // exact utility reaches every abstract upper bound is the true
    // conditional maximum.
    const FrontierHeap::Entry* best_concrete;
    while ((best_concrete = concrete_heap_.Peek(live)) != nullptr && lazy &&
           IsStale(best_concrete->slot)) {
      RefreshSlot(best_concrete->slot);
    }
    const double bar = best_concrete == nullptr
                           ? -std::numeric_limits<double>::infinity()
                           : best_concrete->key1;
    // Speculative top-K refinement: pop the most promising abstract
    // candidates (highest upper bound first; ties by wider interval, then
    // lower rank — the legacy index order).
    targets_.clear();
    while (targets_.size() < kRefineWidth) {
      const FrontierHeap::Entry* top = abstract_heap_.Peek(live);
      if (top == nullptr || !(top->key1 > bar)) break;
      if (lazy && IsStale(top->slot)) {
        // Re-settle: the refreshed bound may fall below the bar or behind
        // other entries.
        RefreshSlot(top->slot);
        continue;
      }
      targets_.push_back(top->slot);
      abstract_heap_.PopTop();
    }
    if (targets_.empty()) {
      PLANORDER_CHECK(best_concrete != nullptr);
      const uint32_t slot = best_concrete->slot;
      OrderedPlan result{SlotToConcrete(slot), lo_[slot]};
      // The winner cell is a single plan, so releasing it keeps the
      // remaining cells a partition of the un-emitted plans — no
      // re-abstraction.
      concrete_heap_.PopTop();
      alive_[slot] = 0;
      ++heap_version_[slot];
      arena_.Release(slot);
      return result;
    }
    // Each target is split in place: the left child overwrites the parent's
    // slot (inheriting its rank), the right child takes a fresh slot and the
    // next rank. Allocation may grow the arena, so the parent row is staged
    // on the stack first.
    right_slots_.clear();
    for (const uint32_t target : targets_) {
      const AbstractionForest& forest = *forests_[forest_of_[target]];
      const uint32_t* parent_row = arena_.row(target);
      const int bucket = RefinementBucket(
          forest, std::span<const uint32_t>(parent_row, size_t(m)));
      PLANORDER_CHECK_GE(bucket, 0);
      uint32_t staged[kMaxBuckets];
      std::copy(parent_row, parent_row + m, staged);
      const int node = static_cast<int>(staged[bucket]);
      const uint32_t right = arena_.Allocate();
      GrowFrontierArrays();
      uint32_t* right_row = arena_.row(right);
      for (int b = 0; b < m; ++b) right_row[b] = staged[b];
      right_row[bucket] = static_cast<uint32_t>(forest.right(node));
      forest_of_[right] = forest_of_[target];
      rank_[right] = next_rank_++;
      arena_.row(target)[bucket] = static_cast<uint32_t>(forest.left(node));
      right_slots_.push_back(right);
    }
    // Children evaluate in [left0, right0, left1, right1, ...] order — the
    // order the legacy implementation evaluated (and counted) them. All
    // allocation is done, so views borrow stable storage.
    for (size_t k = 0; k < targets_.size(); ++k) {
      FillSlot(targets_[k]);
      FillSlot(right_slots_[k]);
      CommitCandidate(targets_[k], EvaluateSlot(targets_[k]));
      CommitCandidate(right_slots_[k], EvaluateSlot(right_slots_[k]));
    }
  }
}

}  // namespace planorder::core
