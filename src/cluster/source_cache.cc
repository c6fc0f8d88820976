#include "cluster/source_cache.h"

#include <utility>

#include "base/logging.h"

namespace planorder::cluster {

namespace {

// Independent digest salts: two 64-bit content hashes of the same call under
// different domains, so a collision requires both to collide at once.
constexpr uint64_t kDigestSaltA = 0x736f757263656331ULL;
constexpr uint64_t kDigestSaltB = 0x736f757263656332ULL;

}  // namespace

SourceOperationCache::Key SourceOperationCache::MakeKey(
    const std::string& source_name,
    const std::vector<std::map<int, datalog::Term>>& batch) {
  return Key(source_name, runtime::BatchHash(kDigestSaltA, batch),
             runtime::BatchHash(kDigestSaltB, batch));
}

int64_t SourceOperationCache::ApproxBytes(
    const std::vector<std::vector<datalog::Term>>& rows) {
  // Entry overhead plus per-row and per-term footprints; approximate by
  // rendered term size, which tracks payload growth well enough for a bound.
  int64_t bytes = 64;
  for (const std::vector<datalog::Term>& row : rows) {
    bytes += 24;
    for (const datalog::Term& term : row) {
      bytes += 16 + static_cast<int64_t>(term.ToString().size());
    }
  }
  return bytes;
}

std::optional<std::vector<std::vector<datalog::Term>>>
SourceOperationCache::Acquire(
    const std::string& source_name,
    const std::vector<std::map<int, datalog::Term>>& batch, bool* leader) {
  const Key key = MakeKey(source_name, batch);
  *leader = false;
  MutexLock lock(mu_);
  while (true) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      // Miss: this caller leads the fetch. The placeholder entry makes every
      // concurrent Acquire for the key wait instead of fetching again.
      auto entry = std::make_shared<Entry>();
      entries_.emplace(key, entry);
      ++stats_.misses;
      *leader = true;
      return std::nullopt;
    }
    std::shared_ptr<Entry> entry = it->second;
    if (entry->state == Entry::State::kResident) {
      ++stats_.hits;
      // Refresh recency (the entry may have been evicted between a publish
      // and a waiter waking up; then it is served but no longer listed).
      if (entries_.count(key) != 0) {
        lru_.splice(lru_.begin(), lru_, entry->lru_pos);
      }
      return entry->rows;
    }
    // In flight: wait for the leader to publish or abort. On abort the
    // leader removed the entry, so the loop re-runs find() and one waiter
    // becomes the new leader — a permanently failing source fails each
    // caller's own fetch instead of wedging the key forever.
    ++stats_.single_flight_waits;
    std::shared_ptr<Entry> waited = entry;
    resolved_.Wait(lock,
                   [&] { return waited->state != Entry::State::kFetching; });
    if (waited->state == Entry::State::kResident) {
      ++stats_.hits;
      return waited->rows;
    }
  }
}

void SourceOperationCache::Publish(
    const std::string& source_name,
    const std::vector<std::map<int, datalog::Term>>& batch,
    const std::vector<std::vector<datalog::Term>>& rows) {
  const Key key = MakeKey(source_name, batch);
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second->state != Entry::State::kFetching) {
      return;  // not the leader's placeholder; nothing to publish into
    }
    std::shared_ptr<Entry> entry = it->second;
    entry->rows = rows;
    entry->bytes = ApproxBytes(rows);
    entry->state = Entry::State::kResident;
    lru_.push_front(key);
    entry->lru_pos = lru_.begin();
    ++stats_.insertions;
    stats_.resident_bytes += entry->bytes;
    ++stats_.resident_entries;
    ++resident_by_name_[source_name];
    EvictToFit();
  }
  resolved_.NotifyAll();
}

void SourceOperationCache::Abort(
    const std::string& source_name,
    const std::vector<std::map<int, datalog::Term>>& batch) {
  const Key key = MakeKey(source_name, batch);
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
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

void SourceOperationCache::RemoveResident(const Key& key,
                                          std::shared_ptr<Entry> entry) {
  lru_.erase(entry->lru_pos);
  stats_.resident_bytes -= entry->bytes;
  --stats_.resident_entries;
  auto by_name = resident_by_name_.find(std::get<0>(key));
  if (by_name != resident_by_name_.end() && --by_name->second <= 0) {
    resident_by_name_.erase(by_name);
  }
  entries_.erase(key);
}

void SourceOperationCache::EvictToFit() {
  if (options_.capacity_bytes <= 0) return;
  while (stats_.resident_bytes > options_.capacity_bytes && !lru_.empty()) {
    const Key victim = lru_.back();
    auto it = entries_.find(victim);
    PLANORDER_CHECK(it != entries_.end());
    std::shared_ptr<Entry> entry = it->second;
    RemoveResident(victim, std::move(entry));
    ++stats_.evictions;
  }
}

}  // namespace planorder::cluster
