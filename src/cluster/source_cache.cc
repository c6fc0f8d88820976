#include "cluster/source_cache.h"

#include <utility>

namespace planorder::cluster {

int64_t SourceOperationCache::ApproxBytes(
    const std::string& source_name, const exec::BindingBatch& batch,
    const std::vector<std::vector<datalog::Term>>& rows) {
  // Entry overhead plus per-row and per-term footprints; approximate by
  // rendered term size, which tracks payload growth well enough for a bound.
  // The key is held by value, so its name and binding combinations are
  // charged at the same rates as the rows.
  int64_t bytes = 64 + 16 + static_cast<int64_t>(source_name.size());
  for (const auto* tuples : {&batch.combinations(), &rows}) {
    for (const std::vector<datalog::Term>& tuple : *tuples) {
      bytes += 24;
      for (const datalog::Term& term : tuple) {
        bytes += 16 + static_cast<int64_t>(term.ToString().size());
      }
    }
  }
  return bytes;
}

std::optional<std::vector<std::vector<datalog::Term>>>
SourceOperationCache::Acquire(const std::string& source_name,
                              const exec::BindingBatch& batch, bool* leader) {
  *leader = false;
  std::shared_ptr<const Entry> hit;
  {
    MutexLock lock(mu_);
    while (hit == nullptr) {
      auto it = entries_.find(std::tie(source_name, batch));
      if (it == entries_.end()) {
        // Miss: this caller leads the fetch. The placeholder entry makes
        // every concurrent Acquire for the key wait instead of fetching
        // again.
        entries_.emplace(Key(source_name, batch), std::make_shared<Entry>());
        ++stats_.misses;
        *leader = true;
        return std::nullopt;
      }
      std::shared_ptr<Entry> entry = it->second;
      if (entry->state == Entry::State::kResident) {
        lru_.splice(lru_.begin(), lru_, entry->lru_pos);  // refresh recency
      } else {
        // In flight: wait for the leader to publish or abort. On abort the
        // leader removed the entry, so the loop re-runs find() and one
        // waiter becomes the new leader — a permanently failing source fails
        // each caller's own fetch instead of wedging the key forever. A
        // published entry is served even if eviction removed it meanwhile.
        ++stats_.single_flight_waits;
        resolved_.Wait(
            lock, [&] { return entry->state != Entry::State::kFetching; });
        if (entry->state != Entry::State::kResident) continue;
      }
      ++stats_.hits;
      hit = std::move(entry);
    }
  }
  // Resident rows are never written again, and `hit` keeps them alive past
  // an eviction, so the copy needs no lock.
  return hit->rows;
}

void SourceOperationCache::Publish(
    const std::string& source_name, const exec::BindingBatch& batch,
    const std::vector<std::vector<datalog::Term>>& rows) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(std::tie(source_name, batch));
    if (it == entries_.end() || it->second->state != Entry::State::kFetching) {
      return;  // not the leader's placeholder; nothing to publish into
    }
    Entry& entry = *it->second;
    entry.rows = rows;
    entry.bytes = ApproxBytes(source_name, batch, rows);
    entry.state = Entry::State::kResident;
    lru_.push_front(it);
    entry.lru_pos = lru_.begin();
    ++stats_.insertions;
    stats_.resident_bytes += entry.bytes;
    ++stats_.resident_entries;
    ++resident_by_name_[source_name];
    EvictToFit();
  }
  resolved_.NotifyAll();
}

void SourceOperationCache::Abort(const std::string& source_name,
                                 const exec::BindingBatch& batch) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(std::tie(source_name, batch));
    if (it == entries_.end() || it->second->state != Entry::State::kFetching) {
      return;
    }
    it->second->state = Entry::State::kAborted;
    entries_.erase(it);
  }
  resolved_.NotifyAll();
}

bool SourceOperationCache::IsResident(const std::string& source_name) const {
  MutexLock lock(mu_);
  auto it = resident_by_name_.find(source_name);
  return it != resident_by_name_.end() && it->second > 0;
}

runtime::SourceResultCacheStats SourceOperationCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void SourceOperationCache::RemoveResident(EntryMap::iterator it) {
  const Entry& entry = *it->second;
  lru_.erase(entry.lru_pos);
  stats_.resident_bytes -= entry.bytes;
  --stats_.resident_entries;
  auto by_name = resident_by_name_.find(std::get<0>(it->first));
  if (by_name != resident_by_name_.end() && --by_name->second <= 0) {
    resident_by_name_.erase(by_name);
  }
  entries_.erase(it);
}

void SourceOperationCache::EvictToFit() {
  if (options_.capacity_bytes <= 0) return;
  while (stats_.resident_bytes > options_.capacity_bytes && !lru_.empty()) {
    RemoveResident(lru_.back());
    ++stats_.evictions;
  }
}

}  // namespace planorder::cluster
