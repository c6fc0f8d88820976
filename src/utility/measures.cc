#include "utility/measures.h"

#include "utility/cost_models.h"
#include "utility/coverage_model.h"

namespace planorder::utility {

std::string MeasureKindName(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kAdditive:
      return "additive";
    case MeasureKind::kCost2UniformAlpha:
      return "cost2-uniform-alpha";
    case MeasureKind::kCost2:
      return "cost2";
    case MeasureKind::kFailureNoCache:
      return "failure-nocache";
    case MeasureKind::kFailureCache:
      return "failure-cache";
    case MeasureKind::kMonetary:
      return "monetary";
    case MeasureKind::kMonetaryCache:
      return "monetary-cache";
    case MeasureKind::kCoverage:
      return "coverage";
  }
  return "?";
}

StatusOr<std::unique_ptr<UtilityModel>> MakeMeasure(
    MeasureKind kind, const stats::Workload* workload) {
  if (kind == MeasureKind::kAdditive) {
    return std::unique_ptr<UtilityModel>(
        std::make_unique<AdditiveCostModel>(workload));
  }
  if (kind == MeasureKind::kCoverage) {
    return std::unique_ptr<UtilityModel>(
        std::make_unique<CoverageModel>(workload));
  }
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<BoundJoinCostModel> model,
                             BoundJoinCostModel::Create(workload, kind));
  return std::unique_ptr<UtilityModel>(std::move(model));
}

}  // namespace planorder::utility
