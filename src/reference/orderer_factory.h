#ifndef PLANORDER_REFERENCE_ORDERER_FACTORY_H_
#define PLANORDER_REFERENCE_ORDERER_FACTORY_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "core/orderer_factory.h"

namespace planorder::core {

/// Builds any of the seven OrdererKinds over `spaces`: the four references
/// (rebuild iDrips, Streamer, PI, naive) here, the production three through
/// MakeOrderer. Same contract otherwise: kFailedPrecondition when the
/// algorithm does not apply to `model`; `workload` and `model` must outlive
/// the orderer.
StatusOr<std::unique_ptr<Orderer>> MakeReferenceOrderer(
    const OrdererSpec& spec, const stats::Workload* workload,
    utility::UtilityModel* model, std::vector<PlanSpace> spaces);

}  // namespace planorder::core

#endif  // PLANORDER_REFERENCE_ORDERER_FACTORY_H_
