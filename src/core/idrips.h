#ifndef PLANORDER_CORE_IDRIPS_H_
#define PLANORDER_CORE_IDRIPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/abstraction.h"
#include "core/arena.h"
#include "core/frontier_heap.h"
#include "core/orderer.h"

namespace planorder::core {

/// Tuning knobs of IDripsOrderer (defaults reproduce the paper's exact
/// ordering semantics at the lowest evaluation cost).
struct IDripsOptions {
  AbstractionHeuristic heuristic = AbstractionHeuristic::kByCardinality;
  /// Persistent candidate frontier (DESIGN.md §6): keep the surviving Drips
  /// candidates across ComputeNext() calls, re-evaluate only candidates whose
  /// utility the executed suffix may have changed (epoch + group-independence
  /// test), and remove just the winner's cell instead of re-abstracting from
  /// the forest roots. When false, Create builds the paper-faithful
  /// IDripsRebuildOrderer instead, which emits the same plans and utilities
  /// at far more evaluations. The flag stays because planbench's fig6-order
  /// checks the frontier against that reference through it.
  bool persistent_frontier = true;
};

/// The iDrips algorithm (Section 5.2): run Drips across the current plan
/// spaces to find the best plan, emit it, remove it, repeat. Works for any
/// utility measure. This class keeps the Drips candidate partition alive
/// between emissions as a persistent frontier (DESIGN.md §6), so dominance
/// information is carried forward instead of rebuilt every iteration.
///
/// The persistent frontier is stored flat (DESIGN.md §11): plan rows in a
/// PlanArena, per-candidate metadata in parallel arrays indexed by slot, and
/// two lazy FrontierHeaps — abstract candidates by (upper bound, width,
/// rank), concrete ones by (exact utility, rank) — in place of per-round
/// linear rescans. Ranks replicate the legacy frontier's vector positions
/// (a left child refined in place inherits its parent's rank), so heap ties
/// break exactly as the old index-ordered scans did and the emission
/// sequence is unchanged.
class IDripsOrderer : public Orderer {
 public:
  /// An IDripsOrderer, or an IDripsRebuildOrderer when
  /// `options.persistent_frontier` is false.
  static StatusOr<std::unique_ptr<Orderer>> Create(
      const stats::Workload* workload, utility::UtilityModel* model,
      std::vector<PlanSpace> spaces, const IDripsOptions& options = {});

  std::string name() const override { return "idrips"; }

  /// Candidates currently alive in the persistent frontier; exposed for
  /// tests and benchmarks.
  size_t frontier_size() const { return arena_.num_live(); }

 protected:
  StatusOr<OrderedPlan> ComputeNext() override;

 private:
  IDripsOrderer(const stats::Workload* workload, utility::UtilityModel* model)
      : Orderer(workload, model) {}

  /// Populates the frontier with the root plan of every forest (the initial
  /// partition of the whole plan space).
  void SeedFrontier();

  /// Eager path: bring every candidate's utility up to the current epoch.
  /// Candidates group-independent of the executed suffix fast-forward
  /// without re-evaluation; the rest are re-evaluated. Used for models
  /// without diminishing returns (whose utilities may rise, so stale heap
  /// keys are not upper bounds) and after an external cache-generation
  /// change (same reason).
  void RefreshStaleCandidates();

  /// Lazy path (diminishing-returns models): a candidate evaluated at an
  /// earlier epoch has utility at most its recorded bounds, so its stale heap
  /// key is a sound upper bound and it can stay untouched until it surfaces
  /// at a heap top. IsStale walks the executed suffix with the model's
  /// GroupIndependentOf, fast-forwarding the slot's epoch when it is
  /// independent of every plan there; RefreshSlot re-evaluates it and pushes
  /// the updated entry when the bounds moved.
  bool IsStale(uint32_t slot);
  void RefreshSlot(uint32_t slot);
  /// Evaluates a slot's plan against the current context, counting it.
  Interval EvaluateSlot(uint32_t slot);

  /// Grows the slot-indexed metadata arrays to the arena's slot count.
  void GrowFrontierArrays();
  /// Resolves a slot's summaries and concreteness from its arena row.
  void FillSlot(uint32_t slot);
  /// Writes a fresh evaluation into a slot's metadata, bumps its heap
  /// version and pushes the new heap entry.
  void CommitCandidate(uint32_t slot, const Interval& utility);
  void PushHeapEntry(uint32_t slot);
  /// Drops dead heap entries when they outnumber live candidates enough to
  /// matter (lazy deletion keeps Push O(log live) otherwise).
  void MaybeCompactHeaps();
  ConcretePlan SlotToConcrete(uint32_t slot) const;
  /// True when the entry's version still matches its slot (the lazy
  /// decrease-key test).
  bool EntryLive(const FrontierHeap::Entry& entry) const {
    return alive_[entry.slot] != 0 &&
           entry.version == heap_version_[entry.slot];
  }

  /// Forests are never rebuilt; stable addresses.
  std::vector<std::unique_ptr<AbstractionForest>> forests_;
  bool frontier_seeded_ = false;

  /// Flat frontier storage (DESIGN.md §11). Plan rows live in the arena;
  /// everything below is indexed by arena slot id (per-bucket arrays are
  /// slot * width + bucket). heap_version_ never resets — slot reuse through
  /// the free list cannot resurrect a stale heap entry.
  PlanArena arena_;
  std::vector<const stats::StatSummary*> summaries_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<double> width_;
  std::vector<int64_t> eval_epoch_;
  std::vector<int64_t> eval_generation_;
  std::vector<uint64_t> rank_;
  std::vector<uint32_t> heap_version_;
  std::vector<uint32_t> forest_of_;
  std::vector<uint8_t> concrete_;
  std::vector<uint8_t> alive_;
  FrontierHeap abstract_heap_;
  FrontierHeap concrete_heap_;
  uint64_t next_rank_ = 0;
  /// External cache generation the frontier was last eagerly refreshed
  /// against (lazy mode only re-runs the full scan when this moves).
  int64_t refreshed_generation_ = 0;

  /// Reusable scratch (cleared per use; kept to avoid per-round allocation).
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> right_slots_;
};

}  // namespace planorder::core

#endif  // PLANORDER_CORE_IDRIPS_H_
