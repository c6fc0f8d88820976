#include "service/reformulation_cache.h"

#include <utility>

namespace planorder::service {

std::shared_ptr<const CachedReformulation> ReformulationCache::Lookup(
    const datalog::CanonicalQuery& canonical) {
  MutexLock lock(mu_);
  auto it = by_hash_.find(canonical.hash);
  if (it == by_hash_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  const std::shared_ptr<const CachedReformulation>& entry = *it->second;
  if (entry->canonical.key != canonical.key) {
    // Same 64-bit hash, different canonical query: never serve it.
    ++stats_.collisions;
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return entry;
}

std::vector<std::shared_ptr<const CachedReformulation>>
ReformulationCache::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<std::shared_ptr<const CachedReformulation>> entries;
  entries.reserve(lru_.size());
  for (const auto& entry : lru_) entries.push_back(entry);
  return entries;
}

void ReformulationCache::Insert(
    std::shared_ptr<const CachedReformulation> entry) {
  if (entry == nullptr || capacity_ == 0) return;
  MutexLock lock(mu_);
  auto it = by_hash_.find(entry->canonical.hash);
  if (it != by_hash_.end()) {
    // Replace in place (same key: concurrent misses raced; different key:
    // the table is hash-keyed, so the colliding older entry gives way).
    lru_.erase(it->second);
    by_hash_.erase(it);
  }
  const uint64_t hash = entry->canonical.hash;
  lru_.push_front(std::move(entry));
  by_hash_[hash] = lru_.begin();
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    by_hash_.erase(lru_.back()->canonical.hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ReformulationCache::Stats ReformulationCache::stats() const {
  MutexLock lock(mu_);
  Stats snapshot = stats_;
  snapshot.size = lru_.size();
  snapshot.capacity = capacity_;
  return snapshot;
}

}  // namespace planorder::service
