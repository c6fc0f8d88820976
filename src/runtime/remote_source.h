#ifndef PLANORDER_RUNTIME_REMOTE_SOURCE_H_
#define PLANORDER_RUNTIME_REMOTE_SOURCE_H_

#include <cstdint>
#include <map>
#include <memory>
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
#include "runtime/source_result_cache.h"
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

/// A resilient proxy over one exec::AccessibleSource: simulates the network
/// model, injects faults, retries transient ones per a RetryPolicy, and
/// reports each call's latency/retries/failures/hedges to its caller.
/// Underlying fetches are serialized by a per-source mutex (the source builds
/// its indexes lazily), so one RemoteSource may be called from many pool
/// workers concurrently; the simulated latency (the expensive part) is paid
/// outside the lock.
///
/// Configuration (set_model / set_time_dilation) must happen before
/// concurrent calls begin — it is not synchronized against FetchBatch.
class RemoteSource {
 public:
  RemoteSource(exec::AccessibleSource* source, uint64_t seed)
      : source_(source), seed_(seed) {}

  const std::string& name() const { return source_->name(); }
  const exec::AccessibleSource& underlying() const { return *source_; }

  void set_model(const NetworkModel& model) { model_ = model; }
  const NetworkModel& model() const { return model_; }

  /// Scales real sleeping relative to simulated milliseconds: 1.0 sleeps the
  /// simulated latency for wall-clock realism (benchmarks), 0.0 never sleeps
  /// (logic tests). Accounting always records undilated simulated time.
  void set_time_dilation(double dilation) { time_dilation_ = dilation; }

  /// Substitutes the time source every simulated wait is charged through
  /// (borrowed; defaults to the process-wide RealClock). Inject a
  /// VirtualClock to replay fault/latency schedules deterministically with
  /// no real sleeping — the simulation harness's determinism hook. Like
  /// set_model, must be called before concurrent calls begin.
  void set_clock(Clock* clock) { clock_ = clock; }
  Clock& clock() const { return *clock_; }

  /// Attaches a shared cross-session result cache (borrowed, may be null).
  /// With a cache, FetchBatch first consults it: a hit returns the cached
  /// rows with zero simulated latency (and no network-model draws — the
  /// cached operation is free, per the Section 6 caching semantics); a miss
  /// elects this call single-flight leader, performs the real fetch and
  /// publishes the rows. Like set_model, must be called before concurrent
  /// calls begin.
  void set_result_cache(SourceResultCache* cache) { cache_ = cache; }

  /// Attaches an execution-trace sink (borrowed, may be null to detach).
  /// Every completed uncached call — success or failure — is reported once
  /// with its observed row count, attempt/failure counts and total simulated
  /// latency; cache hits are not reported. The sink itself must be
  /// thread-safe. Like set_model, must be called before concurrent calls
  /// begin.
  void set_trace_sink(SourceTraceSink* sink) { trace_sink_ = sink; }

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
  /// The pre-cache fetch path: the full resilient access (network model,
  /// faults, retries, accounting). FetchBatch delegates here on a cache miss
  /// (as single-flight leader) or when no cache is attached.
  StatusOr<std::vector<std::vector<datalog::Term>>> FetchBatchUncached(
      const exec::BindingBatch& batch, const RetryPolicy& retry,
      exec::RuntimeAccounting* accounting) EXCLUDES(mu_);

  exec::AccessibleSource* source_;  // fetches serialized under mu_
  uint64_t seed_;
  NetworkModel model_;
  double time_dilation_ = 1.0;
  Clock* clock_ = RealClock::Instance();
  SourceResultCache* cache_ = nullptr;
  SourceTraceSink* trace_sink_ = nullptr;
  Mutex mu_;
};

/// The runtime's view of the mediator's sources: one RemoteSource per entry
/// of an exec::SourceRegistry. Per-source seeds are derived from one run seed
/// via base/rng.h in sorted-name order, so a single recorded seed reproduces
/// the whole run.
class RemoteRegistry {
 public:
  RemoteRegistry(exec::SourceRegistry* underlying, uint64_t seed);

  RemoteSource* Find(const std::string& name);
  const RemoteSource* Find(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// Applies `model` to every source / one source.
  void ConfigureAll(const NetworkModel& model);
  Status Configure(const std::string& name, const NetworkModel& model);
  void set_time_dilation(double dilation);
  /// Routes every source's simulated waits through `clock` (borrowed).
  void set_clock(Clock* clock);
  /// Attaches one shared result cache to every source (borrowed, may be
  /// null to detach).
  void set_result_cache(SourceResultCache* cache);
  /// Attaches one execution-trace sink to every source (borrowed, may be
  /// null to detach) — see RemoteSource::set_trace_sink.
  void set_trace_sink(SourceTraceSink* sink);

 private:
  std::map<std::string, std::unique_ptr<RemoteSource>> sources_;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_REMOTE_SOURCE_H_
