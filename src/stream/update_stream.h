/// \file update_stream.h
/// \brief Streaming-update ingestion front-end: a bounded multi-producer /
/// single-consumer queue of timestamped edge operations, drained by the
/// background StreamApplier (stream/stream_applier.h) into adaptive
/// micro-batches.
///
/// Ordering contract — the stream's observable semantics are *sequential*:
/// the final graph equals the one obtained by applying every accepted op in
/// timestamp (enqueue) order, one at a time. Edge inserts/deletes on
/// distinct edges commute and edge presence is a per-edge property, so this
/// is equivalently "for every edge, the op with the highest timestamp
/// wins". The drain path exploits exactly that: a drained micro-batch is
/// *coalesced* per edge (only the last op on each (u, v) survives), which
/// both shrinks the batch and makes the engine's batch set-semantics
/// (deletions applied before insertions — see QueryEngine::ApplyUpdates)
/// coincide with sequential order, since a coalesced batch carries at most
/// one op per edge. Note the consequence for equivalence oracles: a stream
/// containing *contradicting* ops on one edge (insert then delete, or vice
/// versa) matches the single-batch oracle only after the same last-op-wins
/// canonicalization — applying the raw op list as one set-semantics batch
/// would resurrect a deleted edge. tests/stream_equivalence_test.cc pins
/// both formulations.
///
/// Timestamps are tickets handed out by the ApplierPool (stream/
/// applier_pool.h), the only producer: one global source spans every slice
/// stream, and each stream accepts only strictly increasing tickets. They
/// double as the bounded-staleness watermark ("applied-through") that the
/// appliers stamp onto published snapshots.
///
/// Concurrency: producers enqueue through PushWithTs, waiting for space up
/// to a caller-chosen bound while the queue is at capacity (backpressure,
/// like the executor's bounded task queue); exactly one consumer drains.
/// Close() makes further pushes fail and lets the consumer drain the
/// remainder; Drain returns false only once the stream is closed *and*
/// empty.

#ifndef GPMV_STREAM_UPDATE_STREAM_H_
#define GPMV_STREAM_UPDATE_STREAM_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <vector>

#include "engine/query_engine.h"
#include "stream/stream_stats.h"

namespace gpmv {

/// Queue sizing knobs.
struct UpdateStreamOptions {
  /// Maximum enqueued (not yet drained) ops before PushWithTs waits.
  size_t queue_capacity = 4096;
};

/// Why a PushWithTs returned 0. A blocking push can only report kClosed or
/// kStaleTicket; a deadline adds kTimeout, a kNoWait push kWouldBlock.
enum class PushError {
  kNone = 0,      ///< accepted
  kClosed,        ///< stream was closed
  kStaleTicket,   ///< ts not above every ticket this stream has accepted
  kTimeout,       ///< deadline elapsed while the queue stayed full
  kWouldBlock,    ///< kNoWait push with the queue at capacity
};

/// Result of one Drain call; `batch` is already coalesced (at most one op
/// per edge, each edge's last-enqueued op).
struct StreamDrainResult {
  std::vector<EdgeUpdate> batch;
  uint64_t through_ts = 0;     ///< highest timestamp popped (pre-coalesce)
  size_t ops_popped = 0;       ///< queue elements consumed (pre-coalesce)
  size_t depth_after = 0;      ///< queue depth left behind
  double oldest_wait_ms = 0.0; ///< queue wait of the oldest popped op
};

/// See file comment.
class UpdateStream {
 public:
  explicit UpdateStream(UpdateStreamOptions opts = {});

  UpdateStream(const UpdateStream&) = delete;
  UpdateStream& operator=(const UpdateStream&) = delete;

  /// `wait_ms` for PushWithTs: block until space frees up.
  static constexpr double kWaitForever =
      std::numeric_limits<double>::infinity();
  /// `wait_ms` for PushWithTs: never wait; a full queue is kWouldBlock.
  static constexpr double kNoWait = 0.0;

  /// Enqueues `op` under its externally assigned ticket `ts` (the
  /// ApplierPool's global ticket source spans K per-slice streams, so each
  /// stream sees a strictly increasing subsequence of it). `ts` must exceed
  /// every ticket this stream has accepted. Waits at most `wait_ms` for
  /// queue space: kWaitForever blocks (backpressure), kNoWait fails a full
  /// queue at once with kWouldBlock (the net server's admission path, which
  /// must not block its event loop), and anything in between is a deadline
  /// that fails with kTimeout (the escape hatch for producers behind a
  /// consumer that stopped draining). Returns `ts` on success, else 0 with
  /// `*err` (when non-null) naming the reason. A closed stream or a stale
  /// ticket is refused *before* any wait: a stale ticket is rejected no
  /// matter how long we wait, so parking the producer first would only
  /// stall it behind a full queue to refuse the op anyway.
  uint64_t PushWithTs(EdgeUpdate op, uint64_t ts,
                      double wait_ms = kWaitForever,
                      PushError* err = nullptr);

  /// Stops accepting ops (PushWithTs fails with kClosed from now on) and
  /// wakes a blocked Drain so the consumer can finish the remainder.
  /// Idempotent.
  void Close();

  /// Consumer side (single-threaded): blocks until at least one op is
  /// queued or the stream is closed; pops up to `max_ops` ops, coalesces
  /// them per edge (last op wins), and fills `*out`. Returns false — with
  /// an empty `out->batch` — only when the stream is closed and empty.
  bool Drain(size_t max_ops, StreamDrainResult* out);

  /// Highest ticket accepted so far (0 before the first op): the quiesce
  /// watermark StreamApplier::FlushAndWait targets.
  uint64_t last_accepted_ts() const;

  size_t depth() const;

  /// Configured queue capacity (constant after construction).
  size_t capacity() const { return opts_.queue_capacity; }

  /// Enqueue-side counters: ops accepted so far and the depth high-water
  /// mark (the applier folds these into its per-batch deltas).
  size_t ops_accepted() const;
  size_t max_depth() const;

  /// Last-op-wins canonicalization, exposed for oracles and the applier
  /// alike: keeps, for every (u, v), only the op appearing last in `ops`.
  /// The result carries at most one op per edge, so applying it as a single
  /// set-semantics batch reproduces the sequential application of `ops`.
  static std::vector<EdgeUpdate> Coalesce(const std::vector<EdgeUpdate>& ops);

 private:
  struct Element {
    EdgeUpdate op;
    uint64_t ts;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  UpdateStreamOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Element> queue_;
  uint64_t next_ts_ = 1;  ///< lowest ticket the stream still accepts
  size_t ops_accepted_ = 0;
  size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace gpmv

#endif  // GPMV_STREAM_UPDATE_STREAM_H_
