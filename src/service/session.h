#ifndef PLANORDER_SERVICE_SESSION_H_
#define PLANORDER_SERVICE_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anyk/ranked_stream.h"
#include "base/status.h"
#include "core/orderer.h"
#include "exec/mediator.h"
#include "service/reformulation_cache.h"
#include "utility/model.h"

namespace planorder::service {

class QueryService;

/// One admitted client query, exposed as a streaming pull API: each
/// NextStep() advances the underlying mediation run by exactly one plan and
/// yields its MediatorStep, so a client can render progressive answers and
/// stop as soon as it is satisfied — the paper's anytime behavior, per
/// session.
///
/// A Session owns its orderer, utility model and mediator, and shares the
/// reformulation (buckets + workload) with the service cache. It occupies
/// one admission slot from creation until Finish() or destruction; dropping
/// a half-consumed session is legal and releases the slot. A Session is
/// single-client state: not thread-safe (distinct sessions are independent
/// and may run on distinct threads concurrently).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Advances the run by one plan. kNotFound = run over (orderer exhausted
  /// or max_plans reached) — not an error. Plan-mode sessions
  /// only (kNotFound on ranked sessions).
  StatusOr<exec::MediatorStep> NextStep();

  /// Ranked-mode sessions (QueryService::OpenRankedSession): the
  /// best-weighted answer not yet emitted, duplicates suppressed across all
  /// sound plans. kNotFound = ranked enumeration exhausted (or this is not a
  /// ranked session) — not an error.
  StatusOr<anyk::RankedAnswer> NextRankedAnswer();

  /// True for sessions opened in ranked mode.
  bool ranked() const { return ranked_.has_value(); }

  /// Ranked-mode accounting so far; nullptr on plan-mode sessions.
  const anyk::RankedAnswerStream::Stats* ranked_stats() const {
    return ranked_.has_value() ? &ranked_->stats() : nullptr;
  }

  /// Ends the session: returns the accumulated MediatorResult, records the
  /// session's latency and runtime accounting into the service metrics, and
  /// releases the admission slot. Idempotent; after the first call the
  /// result is empty.
  exec::MediatorResult Finish();

  /// The result accumulated so far, without ending the session.
  const exec::MediatorResult& progress() const;

  /// The distinct answer tuples accumulated so far, in unspecified order.
  std::vector<std::vector<datalog::Term>> Answers() const;

  /// This session's resilient-runtime accounting so far — already
  /// per-session exact (plan-local attribution, see runtime::SourceRuntime),
  /// no cross-session subtraction needed.
  exec::RuntimeAccounting RuntimeSnapshot() const;

  /// True when this session's reformulation came from the cache.
  bool cache_hit() const { return cache_hit_; }

  /// The external residency (bucket-major, 1 = resident in the
  /// cross-session cache) the orderer currently orders under. Between two
  /// NextStep calls it is the snapshot the last step was ranked against:
  /// only the refresh at the top of NextStep changes it.
  const std::vector<std::vector<char>>& external_residency() const {
    return orderer_->context().external_residency();
  }

  /// The canonical form the session runs under (hit and cold sessions of
  /// one isomorphism class see the identical query and plan space).
  const datalog::CanonicalQuery& canonical() const {
    return reformulation_->canonical;
  }

  /// The full shared reformulation (canonical form, buckets, workload) this
  /// session orders over — the sim multi-session property re-evaluates step
  /// utilities against exactly this workload.
  const CachedReformulation& reformulation() const { return *reformulation_; }

 private:
  friend class QueryService;

  Session(QueryService* service,
          std::shared_ptr<const CachedReformulation> reformulation,
          bool cache_hit);

  /// Polls the service's SharedOperationView and marks each (bucket, source)
  /// externally cached in the orderer per the view's current residency. The
  /// orderer's generation counter makes unchanged polls free and changed
  /// ones invalidate exactly the stale frontier utilities.
  void RefreshResidency();

  QueryService* service_;
  std::shared_ptr<const CachedReformulation> reformulation_;
  bool cache_hit_ = false;
  std::unique_ptr<utility::UtilityModel> model_;
  std::unique_ptr<core::Orderer> orderer_;
  std::unique_ptr<exec::Mediator> mediator_;
  std::optional<exec::MediatorStream> stream_;
  std::optional<anyk::RankedAnswerStream> ranked_;
  /// Catalog name of each (bucket, index) source; populated by the service
  /// only when a SharedOperationView is configured.
  std::vector<std::vector<std::string>> source_names_;
  /// Admission timestamp on the service's runtime::Clock — the service layer
  /// never reads the wall clock directly, so an injected VirtualClock makes
  /// latency metrics deterministic too (ServiceOptions::clock).
  double admitted_at_ms_ = 0.0;
  bool finished_ = false;
};

}  // namespace planorder::service

#endif  // PLANORDER_SERVICE_SESSION_H_
