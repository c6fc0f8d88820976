#include "reference/orderer_factory.h"

#include <utility>

#include "core/drips.h"
#include "core/streamer.h"
#include "reference/pi.h"

namespace planorder::core {
namespace {

template <typename T>
StatusOr<std::unique_ptr<Orderer>> Upcast(StatusOr<std::unique_ptr<T>> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<Orderer>(std::move(*built));
}

}  // namespace

StatusOr<std::unique_ptr<Orderer>> MakeReferenceOrderer(
    const OrdererSpec& spec, const stats::Workload* workload,
    utility::UtilityModel* model, std::vector<PlanSpace> spaces) {
  switch (spec.kind) {
    case OrdererKind::kIDripsRebuild:
      return IDripsRebuildOrderer::Create(workload, model, std::move(spaces),
                                          spec.heuristic);
    case OrdererKind::kStreamer:
      return Upcast(StreamerOrderer::Create(workload, model, std::move(spaces),
                                            spec.heuristic));
    case OrdererKind::kPi:
    case OrdererKind::kNaive:
      return Upcast(PiOrderer::Create(workload, model, std::move(spaces),
                                      spec.kind == OrdererKind::kPi));
    case OrdererKind::kAuto:
    case OrdererKind::kGreedy:
    case OrdererKind::kIDrips:
      break;
  }
  return MakeOrderer(spec, workload, model, std::move(spaces));
}

}  // namespace planorder::core
