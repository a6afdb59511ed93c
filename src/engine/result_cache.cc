#include "engine/result_cache.h"

namespace gpmv {

ResultCache::ResultCache(ResultCacheOptions opts) : opts_(opts) {}

size_t ResultCache::ResultBytes(const std::string& key,
                                const MatchResult& r) {
  size_t bytes = key.size() + sizeof(Entry);
  for (uint32_t e = 0; e < r.num_pattern_edges(); ++e) {
    bytes += r.edge_matches(e).size() * sizeof(NodePair);
  }
  // Node matches are derived from (and bounded by) the edge matches.
  bytes += r.TotalMatches() * sizeof(NodeId);
  return bytes;
}

void ResultCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  stats_.bytes_cached -= it->second.bytes;
  --stats_.entries;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

bool ResultCache::Lookup(const std::string& key, const EpochFn& current,
                         MatchResult* out) {
  if (!enabled()) return false;
  std::shared_ptr<const MatchResult> hit;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return false;
    }
    for (const ResultDep& dep : it->second.stamp) {
      if (current(dep.source) == dep.epoch) continue;
      // A dependency moved on; the entry can never be valid again (epochs
      // and versions only grow, and an evicted view's 0 matches no stamp),
      // so drop it now rather than waiting for LRU.
      ++stats_.stale_drops;
      EraseLocked(it);
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    hit = it->second.result;
  }
  // Deep-copy outside the mutex: an eviction may free the entry meanwhile,
  // but the shared_ptr keeps this result alive.
  *out = *hit;
  return true;
}

void ResultCache::Insert(const std::string& key, ResultStamp stamp,
                         const MatchResult& result) {
  if (!enabled()) return;
  const size_t bytes =
      ResultBytes(key, result) + stamp.size() * sizeof(ResultDep);
  if (bytes > opts_.budget_bytes) return;  // would evict everything else
  // Copy only after the size check (and outside the mutex).
  auto shared = std::make_shared<const MatchResult>(result);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(it);  // replace (e.g. a stale stamp)
  lru_.push_front(key);
  Entry& e = map_[key];
  e.stamp = std::move(stamp);
  e.result = std::move(shared);
  e.bytes = bytes;
  e.lru_pos = lru_.begin();
  stats_.bytes_cached += bytes;
  ++stats_.entries;
  ++stats_.inserts;
  while (stats_.bytes_cached > opts_.budget_bytes && !lru_.empty()) {
    auto victim = map_.find(lru_.back());
    EraseLocked(victim);
    ++stats_.evictions;
  }
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace gpmv
