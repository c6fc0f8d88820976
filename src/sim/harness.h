#ifndef PLANORDER_SIM_HARNESS_H_
#define PLANORDER_SIM_HARNESS_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "core/orderer.h"
#include "sim/scenario.h"
#include "stats/workload.h"
#include "utility/measures.h"

namespace planorder::sim {

/// Harness-wide knobs.
struct SimOptions {
  /// Relative tolerance of oracle / metamorphic utility comparisons.
  double tolerance = 1e-9;
  /// Spaces larger than this skip the O(plans^2) exhaustive oracle.
  uint64_t max_oracle_plans = 4096;
};

/// Counters of one scenario (or sweep) for the driver's summary line.
struct SimReport {
  int64_t checks = 0;   // individual property checks that ran
  int64_t skipped = 0;  // (measure, algo) pairs skipped as inapplicable
  void Merge(const SimReport& other) {
    checks += other.checks;
    skipped += other.skipped;
  }
};

/// Pulls every emission out of `orderer` (kNotFound terminates; any other
/// status propagates).
StatusOr<std::vector<core::OrderedPlan>> Drain(core::Orderer& orderer);

/// Runs every enabled check of `scenario`: per (measure, algo) the drain,
/// the exhaustive-order oracle and the metamorphic properties; plus (once per
/// scenario) the fault-free runtime-vs-direct-execution equivalence. The
/// first failing check aborts the scenario with a status whose message names
/// the check, the (measure, algo) pair and the divergence. `report`, if
/// non-null, accrues check/skip counters.
Status RunScenario(const Scenario& scenario, const SimOptions& options,
                   SimReport* report);

}  // namespace planorder::sim

#endif  // PLANORDER_SIM_HARNESS_H_
