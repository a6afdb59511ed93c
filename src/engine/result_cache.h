/// \file result_cache.h
/// \brief Full-result memoization in front of the view cache: Q(G) keyed by
/// the minimized query, stamped with what the answer was computed from.
///
/// The workloads the engine serves repeat a few query shapes many times
/// (engine_throughput submits 1k queries over ~10 patterns), so a repeated
/// query's full result is often simply the previous one. This cache stores
/// the *minimized-shape* MatchResult under the minimized pattern's
/// canonical text — two queries that minimize to the same pattern share one
/// entry, and each caller expands the hit back through its own edge_map —
/// so a hit skips view pinning, materialization, and the fixpoint entirely.
///
/// Invalidation is by dependency stamp. Every entry holds the list of
/// (source, epoch) pairs its answer was computed from, and a lookup serves
/// it only while every source still has that epoch; otherwise it drops the
/// entry and reports a miss. The engine stamps two kinds of answer:
///
///  * MatchJoin answers depend only on the view extensions they joined
///    (the paper's MatchJoin(Q, V(G)) reads nothing else), so they carry
///    one (view id, view epoch) pair per view read — see view_cache.h for
///    when an epoch moves. An update batch that leaves those extensions
///    unchanged keeps the entry valid.
///  * Every other answer reads the graph, and carries the single pair
///    (kGraphSource, snapshot version): exact-version semantics.
///
/// Entries are byte-accounted and evicted LRU under a small budget;
/// `budget_bytes == 0` disables the cache.
///
/// Thread safety: all methods are safe from any number of threads (one
/// internal mutex; the engine calls Lookup/Insert under its *shared*
/// registry lock, which also keeps the epochs a lookup compares stable).
/// Entries hold their result behind a shared_ptr so the mutex guards only
/// pointer/LRU traffic — the hit's copy into the caller happens outside the
/// critical section.

#ifndef GPMV_ENGINE_RESULT_CACHE_H_
#define GPMV_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "simulation/match_result.h"

namespace gpmv {

/// Sizing knobs.
struct ResultCacheOptions {
  /// Byte budget for cached results; 0 disables the cache entirely.
  size_t budget_bytes = 8u << 20;
};

/// Observability counters; bytes/entries reflect the current state, the
/// rest are monotone totals.
struct ResultCacheStats {
  size_t hits = 0;
  size_t misses = 0;          ///< includes stale lookups
  size_t stale_drops = 0;     ///< entries dropped because a dependency changed
  size_t inserts = 0;
  size_t evictions = 0;       ///< LRU evictions under the byte budget
  size_t bytes_cached = 0;
  size_t entries = 0;
};

/// One input an answer was computed from, at the epoch it had then.
struct ResultDep {
  uint32_t source = 0;  ///< a view id, or ResultCache::kGraphSource
  uint64_t epoch = 0;   ///< the view's epoch, or the snapshot version
};

/// Everything one memoized answer depends on.
using ResultStamp = std::vector<ResultDep>;

/// See file comment.
class ResultCache {
 public:
  /// The source id of the graph snapshot itself.
  static constexpr uint32_t kGraphSource = std::numeric_limits<uint32_t>::max();

  /// Resolves a source to its current epoch.
  using EpochFn = std::function<uint64_t(uint32_t source)>;

  /// The stamp of an answer read off graph version `version`.
  static ResultStamp GraphStamp(uint64_t version) {
    return {{kGraphSource, version}};
  }

  /// Resolver for a reader of graph version `version` with no live views.
  static EpochFn AtGraphVersion(uint64_t version) {
    return [version](uint32_t source) {
      return source == kGraphSource ? version : 0;
    };
  }

  explicit ResultCache(ResultCacheOptions opts = {});

  bool enabled() const { return opts_.budget_bytes > 0; }

  /// Copies the cached result for `key` into `out` and returns true when
  /// every dependency of the entry still has its stamped epoch under
  /// `current`. A stale entry is dropped and counted; absent or stale
  /// lookups count a miss and return false.
  bool Lookup(const std::string& key, const EpochFn& current,
              MatchResult* out);

  /// Installs (replacing any previous entry for `key`) and evicts LRU
  /// entries over budget. Results larger than the whole budget are not
  /// cached — rejected by size *before* the copy is made, so oversized
  /// results cost nothing per miss. No-op when disabled.
  void Insert(const std::string& key, ResultStamp stamp,
              const MatchResult& result);

  ResultCacheStats stats() const;

 private:
  struct Entry {
    ResultStamp stamp;
    /// Shared so a hit only copies the pointer under the mutex.
    std::shared_ptr<const MatchResult> result;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
  };

  static size_t ResultBytes(const std::string& key, const MatchResult& r);

  /// Caller holds mu_; drops `it`'s entry and its LRU link.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it);

  ResultCacheOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< most recently used at the front
  ResultCacheStats stats_;
};

}  // namespace gpmv

#endif  // GPMV_ENGINE_RESULT_CACHE_H_
