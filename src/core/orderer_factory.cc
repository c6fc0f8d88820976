#include "core/orderer_factory.h"

#include <utility>

#include "core/greedy.h"
#include "core/idrips.h"

namespace planorder::core {
namespace {

constexpr OrdererKind kAllKinds[] = {
    OrdererKind::kAuto,          OrdererKind::kGreedy,
    OrdererKind::kIDrips,        OrdererKind::kIDripsRebuild,
    OrdererKind::kStreamer,      OrdererKind::kPi,
    OrdererKind::kNaive,
};

OrdererKind ResolveOrdererKind(OrdererKind kind,
                               const utility::UtilityModel& model) {
  if (kind != OrdererKind::kAuto) return kind;
  // Greedy clearly wins when applicable. Otherwise the persistent iDrips
  // frontier, which also serves diminishing-returns measures at a fraction
  // of Streamer's cost per evaluation; Streamer stays a named reference.
  if (model.fully_monotonic()) return OrdererKind::kGreedy;
  return OrdererKind::kIDrips;
}

}  // namespace

std::string OrdererKindName(OrdererKind kind) {
  switch (kind) {
    case OrdererKind::kAuto:
      return "auto";
    case OrdererKind::kGreedy:
      return "greedy";
    case OrdererKind::kIDrips:
      return "idrips";
    case OrdererKind::kIDripsRebuild:
      return "idrips-rebuild";
    case OrdererKind::kStreamer:
      return "streamer";
    case OrdererKind::kPi:
      return "pi";
    case OrdererKind::kNaive:
      return "naive";
  }
  return "unknown";
}

StatusOr<OrdererKind> OrdererKindFromName(const std::string& name) {
  for (OrdererKind kind : kAllKinds) {
    if (OrdererKindName(kind) == name) return kind;
  }
  return InvalidArgumentError("unknown algorithm '" + name + "'");
}

bool Applicable(OrdererKind kind, const utility::UtilityModel& model) {
  switch (kind) {
    case OrdererKind::kGreedy:
      return model.fully_monotonic();
    case OrdererKind::kStreamer:
      return model.diminishing_returns();
    default:
      return true;
  }
}

StatusOr<std::unique_ptr<Orderer>> MakeOrderer(const OrdererSpec& spec,
                                               const stats::Workload* workload,
                                               utility::UtilityModel* model,
                                               std::vector<PlanSpace> spaces) {
  const OrdererKind kind = ResolveOrdererKind(spec.kind, *model);
  switch (kind) {
    case OrdererKind::kGreedy: {
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<GreedyOrderer> greedy,
          GreedyOrderer::Create(workload, model, std::move(spaces)));
      return std::unique_ptr<Orderer>(std::move(greedy));
    }
    case OrdererKind::kIDrips:
      return IDripsOrderer::Create(workload, model, std::move(spaces),
                                   {.heuristic = spec.heuristic});
    case OrdererKind::kIDripsRebuild:
    case OrdererKind::kStreamer:
    case OrdererKind::kPi:
    case OrdererKind::kNaive:
      return InvalidArgumentError("'" + OrdererKindName(kind) +
                                  "' is a reference algorithm, not a "
                                  "production orderer");
    case OrdererKind::kAuto:
      break;
  }
  return InternalError("kAuto must have been resolved");
}

}  // namespace planorder::core
