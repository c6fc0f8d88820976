#ifndef PLANBENCH_WORKLOAD_H_
#define PLANBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace planbench {

/// Per-layer values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// One benchmark workload, fully set up: inputs generated from the seed, the
/// system under test built and warm. Instances are built by MakeWorkload;
/// the benchmark times that call as set-up.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads.
  virtual int clients() const = 0;
  /// Worker threads the system under test runs besides the clients.
  virtual int pool_threads() const { return 0; }
  /// The percentile reported as the *_tail metrics: the highest one that
  /// leaves at least ten samples above it in a run of this workload.
  virtual double tail_percentile() const = 0;

  /// Correctness oracles, run once after set-up and not timed. Also records
  /// the exact per-layer counts. Non-OK = the system's output is wrong.
  virtual Status Verify() = 0;

  /// One closed-loop op. Non-OK = a wrong output.
  virtual Status Op(int client, int64_t n, OpSample* sample) = 0;

  /// Snapshots the system's counters; LayerMetrics reports deltas since.
  virtual void BeginWindow() {}

  /// Traced run only: replays, stage by stage, the sessions client `client`
  /// sampled during the traced window, until `deadline_ms`. Non-OK = a
  /// replay emitted other plans or answers than its session.
  virtual Status Replay(int client, double deadline_ms) {
    (void)client;
    (void)deadline_ms;
    return Status();
  }

  /// Fills this workload's per-layer values from the counters since
  /// BeginWindow (`ops` ops ran) and the trace. Values it leaves unset are
  /// reported as 0: the layer does no such work on this workload.
  virtual void LayerMetrics(const Tracer::Summary& trace, int64_t ops,
                            LayerValues* values) = 0;
};

/// Builds workload `name` from `seed`; kNotFound for an unknown name.
StatusOr<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                 uint64_t seed);

std::unique_ptr<Workload> MakeFig6Order(uint64_t seed);
StatusOr<std::unique_ptr<Workload>> MakeServiceHot(uint64_t seed);
StatusOr<std::unique_ptr<Workload>> MakeServiceCold(uint64_t seed);
StatusOr<std::unique_ptr<Workload>> MakeRanked(uint64_t seed);

/// Percentile `p` of the durations (us) of the spans named `name`, times
/// `scale` (1e-3 converts to ms).
double SpanPercentile(const Tracer::Summary& trace, const std::string& name,
                      double p, double scale = 1.0);

/// Summed durations (us) of the spans named `name`.
double SpanTotalUs(const Tracer::Summary& trace, const std::string& name);

/// Number of spans named `name`.
int64_t SpanCount(const Tracer::Summary& trace, const std::string& name);

/// The core.* timing values from the "Orderer::Create" and "Orderer::Next"
/// spans; `evaluations` is what the traced orderers evaluated.
void CoreLayerMetrics(const Tracer::Summary& trace, int64_t evaluations,
                      LayerValues* values);

}  // namespace planbench

#endif  // PLANBENCH_WORKLOAD_H_
