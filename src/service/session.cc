#include "service/session.h"

#include <utility>

#include "service/query_service.h"

namespace planorder::service {

Session::Session(QueryService* service,
                 std::shared_ptr<const CachedReformulation> reformulation,
                 bool cache_hit)
    : service_(service),
      reformulation_(std::move(reformulation)),
      cache_hit_(cache_hit),
      admitted_at_ms_(service->clock_->NowMs()) {}

Session::~Session() { Finish(); }

void Session::RefreshResidency() {
  const SharedOperationView* view = service_->options_.source_cache_view;
  if (view == nullptr || orderer_ == nullptr) return;
  for (size_t b = 0; b < source_names_.size(); ++b) {
    for (size_t i = 0; i < source_names_[b].size(); ++i) {
      orderer_->SetExternallyCached(static_cast<int>(b), static_cast<int>(i),
                                    view->IsResident(source_names_[b][i]));
    }
  }
}

StatusOr<exec::MediatorStep> Session::NextStep() {
  if (finished_ || !stream_.has_value()) {
    return NotFoundError("session is finished");
  }
  // Pull the cross-session cache state forward before the orderer picks the
  // next plan: another session's fetch since our last step may have zeroed
  // the residual cost of some source operations, which changes the
  // conditional utilities this emission must be ranked under.
  RefreshResidency();
  return stream_->NextStep();
}

StatusOr<anyk::RankedAnswer> Session::NextRankedAnswer() {
  if (finished_ || !ranked_.has_value()) {
    return NotFoundError("session has no open ranked stream");
  }
  return ranked_->Next();
}

exec::MediatorResult Session::Finish() {
  if (finished_) return {};
  finished_ = true;
  exec::MediatorResult result;
  const double elapsed_ms = service_->clock_->NowMs() - admitted_at_ms_;
  if (stream_.has_value()) {
    result = stream_->TakeResult();
    service_->OnSessionFinished(result, elapsed_ms);
  } else if (ranked_.has_value()) {
    // Ranked sessions fold into the same service metrics: the emitted
    // distinct answers and the sound-plan count are directly comparable.
    result.total_answers = ranked_->stats().answers_emitted;
    result.sound_plans = ranked_->stats().sound_plans;
    service_->OnSessionFinished(result, elapsed_ms);
  }
  // A session that never received its stream (service-side construction
  // failure) still held a slot; either way the slot goes back.
  service_->Release();
  return result;
}

const exec::MediatorResult& Session::progress() const {
  static const exec::MediatorResult kEmpty;
  return stream_.has_value() ? stream_->result() : kEmpty;
}

exec::RuntimeAccounting Session::RuntimeSnapshot() const {
  return progress().runtime;
}

std::vector<std::vector<datalog::Term>> Session::Answers() const {
  std::vector<std::vector<datalog::Term>> tuples;
  if (!stream_.has_value()) return tuples;
  tuples.reserve(stream_->answers().size());
  for (const std::vector<datalog::Term>& tuple : stream_->answers()) {
    tuples.push_back(tuple);
  }
  return tuples;
}

}  // namespace planorder::service
