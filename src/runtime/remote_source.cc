#include "runtime/remote_source.h"

#include <cmath>

#include "base/hash.h"

namespace planorder::runtime {

namespace {

// Domain-separation salts so latency, fault, hedge and backoff draws of the
// same attempt are independent.
constexpr uint64_t kLatencySalt = 0x6c61746e63793031ULL;
constexpr uint64_t kFaultSalt = 0x6661756c74303132ULL;
constexpr uint64_t kHedgeSalt = 0x6865646765303133ULL;
constexpr uint64_t kBackoffSalt = 0x6261636b6f663134ULL;

double JitterMultiplier(double jitter, uint64_t hash) {
  if (jitter <= 0.0) return 1.0;
  return 1.0 + jitter * (2.0 * HashToUnit(hash) - 1.0);
}

/// Content hash of a batched call: `seed` folded with every combination's
/// bound positions (ascending) and rendered values. Identical payloads hash
/// identically on every thread — the root of the runtime's
/// schedule-independence; the latency, fault, hedge and backoff draws all
/// derive from it, so its output must never change.
uint64_t BatchHash(uint64_t seed, const exec::BindingBatch& batch) {
  const std::vector<int>& positions = batch.positions();
  uint64_t h = MixHash(seed);
  for (const std::vector<datalog::Term>& values : batch.combinations()) {
    uint64_t combo = 0x42;
    for (size_t i = 0; i < values.size(); ++i) {
      combo = CombineHash(combo, uint64_t(positions[i]));
      combo = CombineHash(combo, Fnv1a64(values[i].ToString()));
    }
    h = CombineHash(h, combo);
  }
  return h;
}

}  // namespace

StatusOr<std::vector<std::vector<datalog::Term>>> RemoteSource::FetchBatch(
    const exec::BindingBatch& batch, const RetryPolicy& retry,
    exec::RuntimeAccounting* accounting) {
  // Accounting accrues call-locally and commits into the caller's channel
  // on every exit path, so concurrent callers never see each other's work in
  // their own numbers.
  exec::RuntimeAccounting acct;
  const auto commit = [&] {
    if (accounting != nullptr) accounting->Merge(acct);
  };
  // Trace export (the observe edge of the adaptive loop): one observation
  // per logical call, on every exit path. Latency is quantized to integer
  // microseconds so downstream accumulation commutes exactly.
  const auto report = [&](int64_t rows, int64_t attempts, int64_t failures,
                          double total_ms, bool call_failed) {
    if (trace_sink_ == nullptr) return;
    SourceObservation obs;
    obs.rows = rows;
    obs.attempts = attempts;
    obs.failures = failures;
    obs.latency_micros = llround(total_ms * 1000.0);
    obs.call_failed = call_failed;
    trace_sink_->RecordFetch(name(), obs);
  };
  if (model_.permanently_failed) {
    ++acct.permanent_failures;
    commit();
    report(/*rows=*/0, /*attempts=*/1, /*failures=*/1, /*total_ms=*/0.0,
           /*call_failed=*/true);
    return UnavailableError("source '" + name() + "' is permanently down");
  }
  const uint64_t call_hash = BatchHash(seed_, batch);
  const int max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  double call_total_ms = 0.0;  // everything this logical call cost
  for (int attempt = 1;; ++attempt) {
    const uint64_t attempt_hash = CombineHash(call_hash, uint64_t(attempt));
    double latency_ms =
        (model_.base_latency_ms +
         model_.per_binding_latency_ms * double(batch.size())) *
        JitterMultiplier(model_.latency_jitter,
                         CombineHash(attempt_hash, kLatencySalt));
    const bool transient_fault =
        model_.transient_failure_rate > 0.0 &&
        HashToUnit(CombineHash(attempt_hash, kFaultSalt)) <
            model_.transient_failure_rate;
    if (!transient_fault) {
      bool hedged = false;
      if (model_.hedge_delay_ms > 0.0 && latency_ms > model_.hedge_delay_ms) {
        // The primary is slow: race a backup call against it. The attempt
        // completes when the faster of the two responds.
        hedged = true;
        const double backup_ms =
            (model_.base_latency_ms +
             model_.per_binding_latency_ms * double(batch.size())) *
            JitterMultiplier(model_.latency_jitter,
                             CombineHash(attempt_hash, kHedgeSalt));
        const double raced = model_.hedge_delay_ms + backup_ms;
        if (raced < latency_ms) latency_ms = raced;
      }
      // Attempt succeeds: perform the underlying fetch (fast, in-memory)
      // under the per-source mutex, then pay the simulated shipping time
      // outside it.
      StatusOr<std::vector<std::vector<datalog::Term>>> rows =
          [&]() -> StatusOr<std::vector<std::vector<datalog::Term>>> {
        MutexLock lock(mu_);
        return source_->FetchBatch(batch);
      }();
      if (!rows.ok()) {
        commit();
        return rows.status();  // contract violation, not a fault
      }
      latency_ms += model_.per_tuple_latency_ms * double(rows->size());
      call_total_ms += latency_ms;
      acct.latency_ms_total += latency_ms;
      if (latency_ms > acct.latency_ms_max) acct.latency_ms_max = latency_ms;
      if (hedged) ++acct.hedged_calls;
      commit();
      report(int64_t(rows->size()), attempt, attempt - 1, call_total_ms,
             /*call_failed=*/false);
      clock_->SleepMs(latency_ms, time_dilation_);
      return rows;
    }

    // Failed attempt: it still cost its latency.
    call_total_ms += latency_ms;
    acct.latency_ms_total += latency_ms;
    if (latency_ms > acct.latency_ms_max) acct.latency_ms_max = latency_ms;
    ++acct.transient_failures;
    clock_->SleepMs(latency_ms, time_dilation_);
    if (attempt >= max_attempts) {
      commit();
      report(/*rows=*/0, attempt, attempt, call_total_ms,
             /*call_failed=*/true);
      return UnavailableError("source '" + name() + "' failed " +
                              std::to_string(attempt) +
                              " attempts (retries exhausted)");
    }
    const double backoff_ms =
        retry.BackoffMs(attempt, CombineHash(attempt_hash, kBackoffSalt));
    call_total_ms += backoff_ms;
    ++acct.retries;
    clock_->SleepMs(backoff_ms, time_dilation_);
  }
}

}  // namespace planorder::runtime
