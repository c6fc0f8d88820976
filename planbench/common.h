#ifndef PLANBENCH_COMMON_H_
#define PLANBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.h"

namespace planbench {

using planorder::Status;
using planorder::StatusOr;

/// Milliseconds on the monotonic clock.
double NowMs();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Peak resident set of this process in MiB (VmHWM), 0 when unknown.
double PeakRssMb();

/// Returns freed heap to the system and restarts the VmHWM peak from the
/// current resident set, so PeakRssMb covers what follows (not the oracles).
void ResetPeakRss();

/// Seed of the `index`-th derived input stream of run seed `seed`
/// (splitmix64), so every input a workload draws follows from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t index);

/// What the client saw of one op: its latency, the time to its first result
/// and whether the system failed it (shed, error status, or plans lost).
struct OpSample {
  double latency_ms = 0.0;
  double first_ms = 0.0;
  bool failed = false;
};

/// A closed-loop window: every client issues its next op only after the
/// previous one returned, until the deadline.
struct LoopResult {
  std::vector<OpSample> samples;
  double window_s = 0.0;
  /// First wrong output any client saw; the loop stops at it.
  Status error;
};

/// One op of client `client` (its `n`-th). Fills `sample`; a non-OK status
/// means the system returned a wrong output (never a failure it reported).
using OpFn = std::function<Status(int client, int64_t n, OpSample* sample)>;

/// Runs `clients` threads of `op` for `seconds` of wall clock.
LoopResult RunClosedLoop(int clients, double seconds, const OpFn& op);

/// Renders a double with every significant digit (JSON number).
std::string JsonNumber(double value);

}  // namespace planbench

#endif  // PLANBENCH_COMMON_H_
