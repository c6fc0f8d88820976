#ifndef PLANORDER_ADAPTIVE_ADAPTIVE_ORDERER_H_
#define PLANORDER_ADAPTIVE_ADAPTIVE_ORDERER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adaptive/drift_monitor.h"
#include "adaptive/observed_stats.h"
#include "base/status.h"
#include "core/orderer.h"
#include "core/orderer_factory.h"
#include "stats/workload.h"
#include "utility/measures.h"

namespace planorder::adaptive {

struct AdaptiveOptions {
  /// Which ordering algorithm ranks plans under the current statistics;
  /// core::MakeOrderer builds it, so a reference kind fails Create.
  core::OrdererKind inner = core::OrdererKind::kIDrips;
  utility::MeasureKind measure = utility::MeasureKind::kAdditive;
  DriftOptions drift;
};

/// The re-rank edge of the adaptive loop: a core::Orderer that serves
/// emissions from an inner orderer built over *blended* statistics
/// (BlendWorkload of the estimates and the folded observations) and, when
/// the divergence monitor fires between emissions, discards the inner
/// orderer and reorders everything not yet emitted — the mid-stream
/// discard-and-reorder the orderer interface already supports:
///
///   - the executed history (base context) is replayed into the fresh inner
///     orderer via Orderer::PreloadExecuted, so post-rebuild utilities are
///     conditioned on exactly the executed prefix;
///   - plans already emitted (executed or discarded) still live in the plan
///     spaces and will surface again in the fresh inner stream; they are
///     skipped via ReportDiscarded so they neither re-emit nor condition;
///   - external residency bits are forwarded to the inner context, so the
///     §6 caching measures keep charging resident operations zero residual
///     cost across rebuilds.
///
/// Determinism: rebuild decisions depend only on (estimates, observation
/// folds, options) through the pure StatsDiverged predicate, and the inner
/// orderers honor the byte-identical contract — so the whole adaptive
/// emission sequence is a deterministic function of the observation
/// schedule, verified byte-for-byte against an independent
/// rebuild-from-observed-stats oracle by the sim's check_drift property.
class AdaptiveOrderer : public core::Orderer {
 public:
  /// `estimates` and `observed` are borrowed and must outlive the orderer;
  /// `observed` may be null, in which case the orderer never re-ranks and
  /// emits exactly like its inner algorithm over the estimates.
  /// `source_names[b][i]` names the source behind (bucket b, index i) —
  /// the join key between workload coordinates and trace observations.
  static StatusOr<std::unique_ptr<AdaptiveOrderer>> Create(
      const stats::Workload* estimates,
      std::vector<std::vector<std::string>> source_names,
      const ObservedStats* observed, const AdaptiveOptions& options);

  std::string name() const override { return "adaptive"; }

  void ReportDiscarded() override;
  void SetExternallyCached(int bucket, int source, bool cached) override;

  /// Mid-stream reorders performed (initial build not counted).
  int64_t rebuilds() const { return builds_ > 0 ? builds_ - 1 : 0; }

  /// The blended statistics the current inner orderer ranks by.
  const stats::Workload& current_workload() const { return *workload_; }

 protected:
  StatusOr<core::OrderedPlan> ComputeNext() override;

 private:
  AdaptiveOrderer(const stats::Workload* estimates,
                  std::vector<std::vector<std::string>> source_names,
                  const ObservedStats* observed, const AdaptiveOptions& options,
                  std::unique_ptr<utility::UtilityModel> estimate_model);

  bool NeedsRebuild() const;
  /// Builds a fresh inner orderer over the current blend and replays the
  /// executed history and residency bits into it.
  Status Rebuild();

  AdaptiveOptions options_;
  const stats::Workload* estimates_;
  std::vector<std::vector<std::string>> names_;
  const ObservedStats* observed_;
  /// Backs the base-class context/model slots for the orderer's whole
  /// lifetime (per-generation models come and go with each rebuild).
  std::unique_ptr<utility::UtilityModel> estimate_model_;

  // Current generation, replaced wholesale by Rebuild().
  std::unique_ptr<stats::Workload> workload_;
  std::unique_ptr<utility::UtilityModel> model_;
  std::unique_ptr<core::Orderer> inner_;
  int64_t built_at_generation_ = -1;
  int64_t builds_ = 0;
  int64_t inner_evals_counted_ = 0;
  /// Every plan this orderer has emitted (later executed or discarded) —
  /// the filter that keeps replayed plans out of the post-rebuild stream.
  std::set<core::ConcretePlan> emitted_;
};

}  // namespace planorder::adaptive

#endif  // PLANORDER_ADAPTIVE_ADAPTIVE_ORDERER_H_
