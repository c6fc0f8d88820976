#include "sim/harness.h"

#include <memory>
#include <sstream>
#include <utility>

#include "core/orderer_factory.h"
#include "core/plan_space.h"
#include "reference/orderer_factory.h"
#include "runtime/retry_policy.h"
#include "sim/oracle.h"
#include "sim/properties.h"

namespace planorder::sim {

StatusOr<std::vector<core::OrderedPlan>> Drain(core::Orderer& orderer) {
  std::vector<core::OrderedPlan> emissions;
  while (true) {
    StatusOr<core::OrderedPlan> next = orderer.Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    emissions.push_back(std::move(*next));
  }
  return emissions;
}

namespace {

/// Prefixes a check failure with its full coordinates, so the sweep's
/// failure line alone pinpoints the (check, measure, algo) cell.
Status Contextualize(const Status& status, const std::string& check,
                     utility::MeasureKind kind, const core::OrdererSpec& algo) {
  std::ostringstream out;
  out << "check=" << check << " measure=" << utility::MeasureKindName(kind)
      << " algo=" << core::OrdererKindName(algo.kind) << ": "
      << status.message();
  return Status(status.code(), out.str());
}

}  // namespace

Status RunScenario(const Scenario& scenario, const SimOptions& options,
                   SimReport* report) {
  SimReport local;
  PLANORDER_ASSIGN_OR_RETURN(
      stats::Workload workload,
      stats::Workload::Generate(scenario.MakeWorkloadOptions()));
  const core::PlanSpace full = core::PlanSpace::FullSpace(workload);

  for (utility::MeasureKind kind : scenario.measures) {
    // Instantiation can reject a (measure, workload) pair — e.g. measure (2)
    // with uniform alpha over a workload whose transmission costs vary.
    // That is an applicability skip, not a failure.
    StatusOr<std::unique_ptr<utility::UtilityModel>> model =
        utility::MakeMeasure(kind, &workload);
    if (!model.ok()) {
      ++local.skipped;
      continue;
    }
    for (core::OrdererKind algo_kind : scenario.algos) {
      if (!core::Applicable(algo_kind, **model)) {
        ++local.skipped;
        continue;
      }
      const core::OrdererSpec algo{algo_kind};

      // Baseline drain: every other check is differential against it.
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<core::Orderer> orderer,
          core::MakeReferenceOrderer(algo, &workload, model->get(), {full}));
      StatusOr<std::vector<core::OrderedPlan>> drained = Drain(*orderer);
      if (!drained.ok()) {
        return Contextualize(drained.status(), "drain", kind, algo);
      }
      ++local.checks;

      if (scenario.check_oracle &&
          full.NumPlans() <= options.max_oracle_plans) {
        Status status = VerifyExactOrder(workload, kind, {full}, *drained,
                                         options.tolerance);
        if (!status.ok()) {
          return Contextualize(status, "oracle", kind, algo);
        }
        ++local.checks;
      }

      if (scenario.check_monotone) {
        // Exact transform (power-of-two scale): bit-identical sequence.
        Status status = CheckMonotoneTransform(workload, kind, algo,
                                               /*scale=*/4.0, /*shift=*/0.0,
                                               options.tolerance);
        if (!status.ok()) {
          return Contextualize(status, "monotone", kind, algo);
        }
        // Inexact shift: utility sequences match after the inverse map.
        status = CheckMonotoneTransform(workload, kind, algo,
                                        /*scale=*/1.0, /*shift=*/8.0,
                                        options.tolerance);
        if (!status.ok()) {
          return Contextualize(status, "monotone-shift", kind, algo);
        }
        local.checks += 2;
      }

      if (scenario.check_relabel) {
        Status status = CheckRelabelInvariance(
            workload, kind, algo,
            runtime::CombineHash(scenario.workload_seed,
                                 uint64_t(scenario.step)),
            options.tolerance,
            scenario.check_oracle ? options.max_oracle_plans : 0);
        if (!status.ok()) {
          return Contextualize(status, "relabel", kind, algo);
        }
        ++local.checks;
      }
    }
  }

  if (scenario.check_runtime) {
    Status status = CheckRuntimeEquivalence(scenario);
    if (!status.ok()) {
      return Status(status.code(),
                    "check=runtime: " + std::string(status.message()));
    }
    ++local.checks;
  }

  if (scenario.check_ranked) {
    Status status = CheckRankedEmission(scenario, options.max_oracle_plans);
    if (!status.ok()) {
      return Status(status.code(),
                    "check=ranked: " + std::string(status.message()));
    }
    ++local.checks;
  }

  if (scenario.check_multi) {
    Status status = CheckMultiSession(scenario, options.tolerance);
    if (!status.ok()) {
      return Status(status.code(),
                    "check=multi: " + std::string(status.message()));
    }
    ++local.checks;
  }

  if (scenario.check_drift) {
    Status status = CheckDriftRerank(scenario, options.tolerance);
    if (!status.ok()) {
      return Status(status.code(),
                    "check=drift: " + std::string(status.message()));
    }
    ++local.checks;
  }

  if (report != nullptr) report->Merge(local);
  return OkStatus();
}

}  // namespace planorder::sim
