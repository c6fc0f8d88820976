#include "sim/oracle.h"

#include <cmath>
#include <sstream>

#include "reference/enumerate.h"
#include "utility/execution_context.h"

namespace planorder::sim {

namespace {

std::string PlanToString(const utility::ConcretePlan& plan) {
  std::string out = "[";
  for (size_t b = 0; b < plan.size(); ++b) {
    if (b > 0) out += " ";
    out += std::to_string(plan[b]);
  }
  return out + "]";
}

}  // namespace

Status VerifyExactOrder(const stats::Workload& workload,
                        utility::MeasureKind kind,
                        const std::vector<core::PlanSpace>& spaces,
                        const std::vector<core::OrderedPlan>& emissions,
                        double tolerance) {
  PLANORDER_ASSIGN_OR_RETURN(std::unique_ptr<utility::UtilityModel> model,
                             utility::MakeMeasure(kind, &workload));
  std::vector<core::ConcretePlan> remaining;
  for (const core::PlanSpace& space : spaces) {
    std::vector<core::ConcretePlan> plans = core::EnumeratePlans(space);
    remaining.insert(remaining.end(), plans.begin(), plans.end());
  }
  if (emissions.size() != remaining.size()) {
    std::ostringstream out;
    out << "oracle: orderer emitted " << emissions.size() << " plans, space "
        << "holds " << remaining.size();
    return InternalError(out.str());
  }

  utility::ExecutionContext ctx(&workload);
  for (size_t i = 0; i < emissions.size(); ++i) {
    const core::ConcretePlan& plan = emissions[i].plan;
    size_t index = remaining.size();
    for (size_t j = 0; j < remaining.size(); ++j) {
      if (remaining[j] == plan) {
        index = j;
        break;
      }
    }
    if (index == remaining.size()) {
      std::ostringstream out;
      out << "oracle: step " << i << " emitted plan " << PlanToString(plan)
          << " which is not in the remaining space (duplicate or foreign)";
      return InternalError(out.str());
    }

    const double reported = emissions[i].utility;
    const double recomputed = model->EvaluateConcrete(plan, ctx);
    if (std::abs(recomputed - reported) >
        tolerance * std::max(1.0, std::abs(recomputed))) {
      std::ostringstream out;
      out.precision(17);
      out << "oracle: step " << i << " plan " << PlanToString(plan)
          << " reported utility " << reported << " but brute-force "
          << "conditional utility is " << recomputed;
      return InternalError(out.str());
    }

    double best = recomputed;
    size_t best_index = index;
    for (size_t j = 0; j < remaining.size(); ++j) {
      if (j == index) continue;
      const double u = model->EvaluateConcrete(remaining[j], ctx);
      if (u > best) {
        best = u;
        best_index = j;
      }
    }
    if (best - recomputed > tolerance * std::max(1.0, std::abs(best))) {
      std::ostringstream out;
      out.precision(17);
      out << "oracle: step " << i << " emitted plan " << PlanToString(plan)
          << " with conditional utility " << recomputed << " but plan "
          << PlanToString(remaining[best_index])
          << " is strictly better at " << best << " (not exact decreasing "
          << "conditional-utility order)";
      return InternalError(out.str());
    }

    ctx.MarkExecuted(plan);
    remaining.erase(remaining.begin() + index);
  }
  return OkStatus();
}

}  // namespace planorder::sim
