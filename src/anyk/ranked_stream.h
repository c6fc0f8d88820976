#ifndef PLANORDER_ANYK_RANKED_STREAM_H_
#define PLANORDER_ANYK_RANKED_STREAM_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "anyk/executor.h"
#include "anyk/relation_index.h"
#include "anyk/weights.h"
#include "base/status.h"
#include "core/orderer.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"

namespace planorder::anyk {

/// Ranked mediation: the union of all sound plans' answers, streamed in the
/// canonical ranked order (RankedBefore — weight descending, tuple
/// lexicographically ascending) with duplicates suppressed, without ever
/// materializing any plan's full join.
///
/// The two halves of the paper's pipeline compose:
///
///  - Plan phase (Open): plans are pulled from the ordering algorithm in
///    decreasing-utility order, exactly like exec::Mediator — unsound plans
///    and plans with no executable atom order are discarded with
///    ReportDiscarded so they do not condition later utilities. Each
///    surviving rewriting gets an AnyKEnumerator, i.e. only the cheap
///    bottom-up DP runs here. All of them share one RelationIndex, so a
///    source relation is scanned, interned and weighed once per stream no
///    matter how many plans read it. Under a tight `max_plans` budget the
///    utility order decides which plans are admitted at all.
///  - Answer phase (Next): a global frontier merges the per-plan ranked
///    streams. Answers are drained in equal-weight batches — every enumerator
///    is non-increasing, so once the best frontier weight is w no later
///    answer can exceed w; draining ALL answers of weight w from ALL plans,
///    sorting the batch lexicographically and deduplicating against the
///    global seen-set yields a deterministic sequence that is byte-identical
///    to sorting the full deduplicated union (the brute-force oracle), for
///    any plan arrival order. An answer's first emission carries its best
///    weight: streams are non-increasing, so no later witness of the same
///    tuple can beat an earlier one.
class RankedAnswerStream {
 public:
  struct Options {
    WeightOptions weights;
    /// Plan budget for the plan phase (must be positive).
    int max_plans = 0;
  };

  /// Accounting across both phases.
  struct Stats {
    int plans_considered = 0;    // orderer emissions consumed
    size_t sound_plans = 0;      // of which sound
    size_t open_plans = 0;       // sound, executable, DP built
    size_t relations_indexed = 0;  // distinct relations scanned and weighed
    size_t witnesses_expanded = 0;  // per-plan witnesses pulled by the merge
    size_t answers_emitted = 0;     // distinct answers streamed out
  };

  /// Runs the plan phase. `source_ids[b][i]` maps workload bucket b, index i
  /// to the catalog SourceId (the orderer speaks bucket-index). All pointer
  /// arguments must outlive the stream; the orderer is only used inside Open.
  /// kInvalidArgument on a non-positive `max_plans` or a bad
  /// `weights.scale`.
  static StatusOr<RankedAnswerStream> Open(
      const datalog::Catalog& catalog, const datalog::ConjunctiveQuery& query,
      const datalog::Database& source_facts,
      const std::vector<std::vector<datalog::SourceId>>& source_ids,
      core::Orderer& orderer, const Options& options);

  RankedAnswerStream(RankedAnswerStream&&) = default;
  RankedAnswerStream& operator=(RankedAnswerStream&&) = default;

  /// The best-weighted not-yet-emitted answer (kNotFound when exhausted).
  StatusOr<RankedAnswer> Next();

  /// True once Next has returned kNotFound.
  bool done() const { return done_; }

  const Stats& stats() const { return stats_; }

 private:
  RankedAnswerStream() = default;

  /// Drains the next equal-weight batch from all enumerators into batch_.
  void RefillBatch();

  /// Shared by every enumerator; boxed so moving the stream keeps their
  /// pointers to it valid.
  std::unique_ptr<RelationIndex> index_;
  std::vector<std::unique_ptr<AnyKEnumerator>> enumerators_;
  std::vector<RankedAnswer> batch_;  // current equal-weight batch, in order
  size_t batch_pos_ = 0;
  /// Global dedup across plans: membership tests only, never iterated, so
  /// hash order cannot reach the emission sequence.
  // detlint: order-insensitive(membership-only dedup; never iterated)
  std::unordered_set<std::vector<datalog::Term>, datalog::TermVectorHash>
      seen_;
  Stats stats_;
  bool done_ = false;
};

}  // namespace planorder::anyk

#endif  // PLANORDER_ANYK_RANKED_STREAM_H_
