#include "anyk/ranked_stream.h"

#include <algorithm>
#include <utility>

#include "reformulation/executable_order.h"

namespace planorder::anyk {

StatusOr<RankedAnswerStream> RankedAnswerStream::Open(
    const datalog::Catalog& catalog, const datalog::ConjunctiveQuery& query,
    const datalog::Database& source_facts,
    const std::vector<std::vector<datalog::SourceId>>& source_ids,
    core::Orderer& orderer, const Options& options) {
  if (options.max_plans <= 0) {
    return InvalidArgumentError("max_plans must be positive");
  }
  RankedAnswerStream stream;
  PLANORDER_ASSIGN_OR_RETURN(
      stream.index_, RelationIndex::Create(source_facts, options.weights));
  while (stream.stats_.plans_considered < options.max_plans) {
    auto next = orderer.Next();
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kNotFound) break;
      return next.status();
    }
    ++stream.stats_.plans_considered;
    PLANORDER_ASSIGN_OR_RETURN(
        reformulation::ResolvedPlan resolved,
        reformulation::ResolvePlan(query, catalog, source_ids, next->plan));
    if (resolved.verdict != reformulation::PlanVerdict::kUnsound) {
      ++stream.stats_.sound_plans;
    }
    if (resolved.verdict != reformulation::PlanVerdict::kUsable) {
      orderer.ReportDiscarded();
      continue;
    }
    // Only the bottom-up DP runs here; enumeration stays lazy.
    PLANORDER_ASSIGN_OR_RETURN(
        auto enumerator,
        AnyKEnumerator::Create(resolved.plan.rewriting, stream.index_.get()));
    stream.enumerators_.push_back(std::move(enumerator));
    ++stream.stats_.open_plans;
  }
  stream.stats_.relations_indexed = stream.index_->relations_indexed();
  return stream;
}

void RankedAnswerStream::RefillBatch() {
  batch_.clear();
  batch_pos_ = 0;
  while (batch_.empty()) {
    // The next emission weight is the best frontier weight across all plan
    // streams; since every stream is non-increasing nothing later can beat
    // it.
    bool any = false;
    double best = 0.0;
    for (const std::unique_ptr<AnyKEnumerator>& e : enumerators_) {
      const RankedAnswer* head = e->Peek();
      if (head == nullptr) continue;
      if (!any || head->weight > best) best = head->weight;
      any = true;
    }
    if (!any) return;  // all streams exhausted
    // Drain every answer of exactly that weight from every stream, then
    // canonicalize the batch: lexicographic sort + global dedup. Equal
    // weights compare exactly (dyadic rationals), so the batch boundary is
    // well defined.
    std::vector<RankedAnswer> drained;
    for (const std::unique_ptr<AnyKEnumerator>& e : enumerators_) {
      const RankedAnswer* head;
      while ((head = e->Peek()) != nullptr && head->weight == best) {
        drained.push_back(e->Next().value());
        ++stats_.witnesses_expanded;
      }
    }
    std::sort(drained.begin(), drained.end(),
              [](const RankedAnswer& a, const RankedAnswer& b) {
                return a.tuple < b.tuple;
              });
    for (RankedAnswer& answer : drained) {
      if (seen_.insert(answer.tuple).second) {
        batch_.push_back(std::move(answer));
      }
    }
  }
}

StatusOr<RankedAnswer> RankedAnswerStream::Next() {
  if (done_) return NotFoundError("ranked stream is over");
  if (batch_pos_ >= batch_.size()) RefillBatch();
  if (batch_pos_ >= batch_.size()) {
    done_ = true;
    return NotFoundError("ranked enumeration exhausted");
  }
  ++stats_.answers_emitted;
  return std::move(batch_[batch_pos_++]);
}

}  // namespace planorder::anyk
