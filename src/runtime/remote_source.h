#ifndef PLANORDER_RUNTIME_REMOTE_SOURCE_H_
#define PLANORDER_RUNTIME_REMOTE_SOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "datalog/term.h"
#include "exec/binding_batch.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "runtime/clock.h"
#include "runtime/retry_policy.h"
#include "runtime/trace_sink.h"

namespace planorder::runtime {

/// Deterministic simulated network behavior of one autonomous source — the
/// failure model behind the paper's premise that "sources may be slow or
/// unavailable" (the Figure 6 failure panels). Latency is an affine function
/// of the work a batched call ships (a per-call overhead `h` plus per-binding
/// and per-tuple terms, mirroring cost measure (2)) with multiplicative
/// jitter; faults are transient (per-attempt, retryable) or permanent (the
/// source is dead for the whole run). All randomness is drawn by hashing the
/// call payload (see retry_policy.h), never from a shared stream, so a seed
/// fully determines every outcome regardless of thread scheduling.
struct NetworkModel {
  /// Fixed round-trip overhead per call attempt (the `h` of measure (2)).
  double base_latency_ms = 0.0;
  /// Added per binding combination in the batch (server-side probe work).
  double per_binding_latency_ms = 0.0;
  /// Added per result tuple shipped back (the `alpha` of measure (2)).
  double per_tuple_latency_ms = 0.0;
  /// Multiplicative spread: latency *= 1 + jitter * u, u ~ U[-1, 1).
  double latency_jitter = 0.0;
  /// Probability that an individual attempt fails transiently.
  double transient_failure_rate = 0.0;
  /// The source is down for the entire run; every call fails immediately
  /// with kUnavailable (no retries — the outage is not transient).
  bool permanently_failed = false;
  /// When an attempt's sampled latency exceeds this, a backup (hedged) call
  /// is issued and the attempt completes at
  /// min(latency, hedge_delay + backup latency). <= 0 disables.
  double hedge_delay_ms = 0.0;
};

/// A resilient proxy over one exec::AccessibleSource: simulates one source's
/// network — the model, injected faults, retries per a RetryPolicy, hedged
/// backup calls — and reports each call's latency/retries/failures/hedges to
/// its caller and to an optional trace sink. It knows nothing of the
/// cross-session result cache: SourceRuntime consults that once per batch
/// and calls FetchBatch only on a miss. Underlying fetches are serialized by
/// a per-source mutex (the source builds its indexes lazily), so one
/// RemoteSource may be called from many pool workers concurrently; the
/// simulated latency (the expensive part) is paid outside the lock.
class RemoteSource {
 public:
  /// `time_dilation` scales real sleeping relative to simulated
  /// milliseconds: 1.0 sleeps the simulated latency for wall-clock realism
  /// (benchmarks), 0.0 never sleeps (logic tests); accounting always records
  /// undilated simulated time. Every simulated wait is charged through
  /// `clock` (borrowed; null = the process-wide RealClock) — inject a
  /// VirtualClock to replay fault/latency schedules deterministically with
  /// no real sleeping. `trace_sink` (borrowed, may be null) is told of every
  /// completed call, success or failure, with its observed row count,
  /// attempt/failure counts and total simulated latency; it must be
  /// thread-safe.
  RemoteSource(exec::AccessibleSource* source, uint64_t seed,
               const NetworkModel& model = {}, double time_dilation = 1.0,
               Clock* clock = nullptr, SourceTraceSink* trace_sink = nullptr)
      : source_(source),
        seed_(seed),
        model_(model),
        time_dilation_(time_dilation),
        clock_(clock != nullptr ? clock : RealClock::Instance()),
        trace_sink_(trace_sink) {}

  const std::string& name() const { return source_->name(); }
  const exec::AccessibleSource& underlying() const { return *source_; }

  /// Replaces the network model. Not synchronized against FetchBatch: call
  /// it before concurrent calls begin.
  void set_model(const NetworkModel& model) { model_ = model; }

  /// One resilient batched access (semantics of AccessibleSource::FetchBatch,
  /// including its position checks). Transient failures
  /// are retried per `retry`; exhausting attempts or a permanent outage
  /// yields kUnavailable.
  ///
  /// `*accounting` (if non-null) receives this call's accounting, on
  /// success and failure paths alike. It is the only accounting channel:
  /// many sessions can share one RemoteSource and each still accounts its
  /// own calls exactly.
  StatusOr<std::vector<std::vector<datalog::Term>>> FetchBatch(
      const exec::BindingBatch& batch, const RetryPolicy& retry,
      exec::RuntimeAccounting* accounting = nullptr) EXCLUDES(mu_);

 private:
  exec::AccessibleSource* source_;  // fetches serialized under mu_
  const uint64_t seed_;
  NetworkModel model_;
  const double time_dilation_;
  Clock* const clock_;
  SourceTraceSink* const trace_sink_;
  Mutex mu_;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_REMOTE_SOURCE_H_
