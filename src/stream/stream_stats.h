/// \file stream_stats.h
/// \brief Observability counters for the streaming-update subsystem
/// (stream/applier_pool.h and the per-slice queues and appliers it owns),
/// aggregated into `EngineStats::stream` by the engine.
///
/// This header is deliberately dependency-free (engine/query_engine.h
/// includes it to embed the struct in EngineStats, and the stream layer
/// includes query_engine.h — keeping the stats type here breaks what would
/// otherwise be a header cycle).
///
/// Threading: a StreamStats value is always built privately (per drained
/// micro-batch, by the applier thread) and merged into a shared aggregate
/// under a lock (`UpdateStream`'s queue mutex for the enqueue-side gauges,
/// the engine's counter mutex for `EngineStats::stream`). The struct itself
/// is plain data and not atomic — the *merge points* are what the
/// concurrency layer guards, and the TSan suite (tests/stream_test.cc,
/// tests/engine_concurrency_test.cc) regression-tests exactly that: a
/// `stats()` reader racing the applier must never see a torn batch (the
/// per-batch delta is merged as one unit, so cross-counter invariants like
/// ops_ingested == ops_applied + ops_coalesced + ops_dropped hold in every
/// observed snapshot).

#ifndef GPMV_STREAM_STREAM_STATS_H_
#define GPMV_STREAM_STREAM_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace gpmv {

/// Power-of-two micro-batch size histogram buckets: bucket b counts batches
/// with size in [2^b, 2^(b+1)); the last bucket absorbs everything larger.
constexpr size_t kStreamBatchBuckets = 12;

/// Streaming ingestion counters. Totals are monotone; *_max fields are
/// high-water marks; applied_through_ts is the newest stream timestamp
/// whose op is reflected in a published snapshot.
struct StreamStats {
  size_t ops_ingested = 0;   ///< ops the applier popped off the queue
  size_t ops_applied = 0;  ///< ops committed through ApplyStreamBatchSlice
                           ///< (post-coalesce)
  size_t ops_coalesced = 0;  ///< ops eliminated by per-edge last-op-wins
  size_t ops_dropped = 0;  ///< ops discarded by Stop() on a quarantined
                           ///< slice (quarantine itself retains, never drops)
  size_t batches_applied = 0;   ///< micro-batches pushed through the engine
  size_t apply_failures = 0;    ///< ApplyStreamBatchSlice calls that failed
  size_t retries = 0;      ///< failed-batch re-apply attempts (post-backoff)
  size_t quarantines = 0;  ///< slices that exhausted retries (redo retained)
  size_t revives = 0;      ///< successful ReviveSlice redo replays
  size_t flushes = 0;           ///< FlushAndWait quiesce calls served
  size_t max_queue_depth = 0;   ///< enqueue-side high-water mark
  size_t max_batch_size = 0;    ///< largest micro-batch applied
  /// batch_size_hist[b] counts applied micro-batches of size in
  /// [2^b, 2^(b+1)) (last bucket open-ended).
  size_t batch_size_hist[kStreamBatchBuckets] = {};
  /// Publish lag of a batch: queue wait of its oldest op + its apply time
  /// (enqueue -> visible-to-queries). avg = total / batches_applied.
  double publish_lag_ms_max = 0.0;
  double publish_lag_ms_total = 0.0;
  /// Newest stream timestamp included in a published snapshot (0 = none).
  uint64_t applied_through_ts = 0;

  static size_t BatchBucket(size_t batch_size) {
    size_t b = 0;
    while (batch_size > 1 && b + 1 < kStreamBatchBuckets) {
      batch_size >>= 1;
      ++b;
    }
    return b;
  }

  void RecordBatch(size_t batch_size, double publish_lag_ms) {
    ++batches_applied;
    max_batch_size = std::max(max_batch_size, batch_size);
    ++batch_size_hist[BatchBucket(batch_size)];
    publish_lag_ms_total += publish_lag_ms;
    publish_lag_ms_max = std::max(publish_lag_ms_max, publish_lag_ms);
  }

  void Merge(const StreamStats& o) {
    ops_ingested += o.ops_ingested;
    ops_applied += o.ops_applied;
    ops_coalesced += o.ops_coalesced;
    ops_dropped += o.ops_dropped;
    batches_applied += o.batches_applied;
    apply_failures += o.apply_failures;
    retries += o.retries;
    quarantines += o.quarantines;
    revives += o.revives;
    flushes += o.flushes;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    max_batch_size = std::max(max_batch_size, o.max_batch_size);
    for (size_t b = 0; b < kStreamBatchBuckets; ++b) {
      batch_size_hist[b] += o.batch_size_hist[b];
    }
    publish_lag_ms_max = std::max(publish_lag_ms_max, o.publish_lag_ms_max);
    publish_lag_ms_total += o.publish_lag_ms_total;
    applied_through_ts = std::max(applied_through_ts, o.applied_through_ts);
  }
};

}  // namespace gpmv

#endif  // GPMV_STREAM_STREAM_STATS_H_
