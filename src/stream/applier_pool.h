/// \file applier_pool.h
/// \brief K >= 1 concurrent stream appliers over disjoint slice sets: the
/// only way streamed ops enter the engine, and the front half of the MVCC
/// snapshot chain (graph/mvcc.h, QueryEngine::ApplyStreamBatchSlice).
///
/// Topology: one pool owns K = `num_appliers` (UpdateStream, StreamApplier)
/// pairs — slice i's applier drains slice i's stream and commits through
/// the engine's slice-aware path. Ops route by edge:
/// `SliceOf(u, v) = hash(u, v) % K`, so *every op on one edge lands in one
/// slice* — per-edge last-op-wins coalescing and per-slice FIFO order then
/// reproduce sequential semantics exactly, while ops on different edges
/// commute across slices (the stream's ordering contract already only
/// promises per-edge order). Appliers drain, coalesce and validate
/// concurrently; their commits serialize only at the engine's chain head.
///
/// Timestamps: one *global* ticket source spans all K streams — a push grabs
/// a ticket under the pool mutex, then enqueues under a *per-slice* routing
/// mutex, so each slice stream sees a strictly increasing subsequence. The
/// pool mutex is never held across the (blocking, backpressured) enqueue:
/// the applier threads refresh the watermark under it after every batch, so
/// a producer parked on a full slice queue holding it would deadlock the
/// very drain that frees the queue. Ticket density is what makes the
/// min-over-slices watermark meaningful: once the ticket source passed T,
/// no op with ts <= T can appear anywhere (a ticket burned by a raced Stop
/// leaves a gap, but only post-stop, where it merely keeps the watermark
/// conservative). On an engine with prior streamed history the ticket
/// source resumes from the published watermark instead of 1, matching the
/// slice-clock seeding in QueryEngine::ConfigureStreamSlices — stale
/// watermarks must not satisfy read-your-writes waits for new tickets.
///
/// Watermark liveness (the stalled/idle-slice problem): the engine derives
/// applied_through_ts as the minimum over slice clocks, so a slice that
/// simply never receives ops would pin the watermark forever. After every
/// handled batch the pool refreshes: any slice whose applier has consumed
/// everything ever routed to it is *provably quiet* through the global
/// last-assigned ts (tickets bump the slice's routed tail under the pool
/// mutex before the op is enqueued, so a mid-flight op is already visible
/// in that tail) and its clock heartbeats forward
/// (QueryEngine::AdvanceStreamSlice). A slice with a pending op keeps its
/// clock — and therefore the global watermark — exactly at its last
/// applied ts: a lagging applier can never publish a hole. A *quarantined*
/// applier (retries exhausted — see stream_applier.h) is never heartbeated:
/// its failed batch is retained in the redo log, not applied, so its slice
/// clock pins the watermark at its last successful apply — FlushAndWait
/// then returns the quarantine status (kResourceExhausted) with the
/// watermark still short of the global ts, and producers routing to that
/// slice feel queue backpressure (Push blocks; PushWithDeadline fast-fails
/// kResourceExhausted). ReviveSlice replays the slice's redo log and, on
/// success, lets the next refresh heartbeat the slice clock back up to the
/// global ts — the watermark reintegrates without holes because nothing
/// was ever skipped.
///
/// Quiesce/teardown build on the per-applier contract: FlushAndWait
/// flushes every applier then refreshes the watermark to the global ts;
/// Stop closes all streams, joins all threads, returns the first sticky
/// failure (a quarantined slice's retained ops are discarded by its
/// applier's Stop as explicit ops_dropped — the only drop path).

#ifndef GPMV_STREAM_APPLIER_POOL_H_
#define GPMV_STREAM_APPLIER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "engine/query_engine.h"
#include "stream/stream_applier.h"
#include "stream/update_stream.h"

namespace gpmv {

struct ApplierPoolOptions {
  /// Concurrent appliers / stream slices (clamped to >= 1).
  size_t num_appliers = 2;
  /// Per-applier micro-batching and retry knobs, shared by all K appliers.
  StreamApplierOptions applier;
  /// Per-slice queue sizing.
  UpdateStreamOptions stream;
};

/// See file comment.
class ApplierPool {
 public:
  /// Configures the engine's slice topology and starts all K applier
  /// threads. `engine` must outlive this object (or its Stop()).
  ApplierPool(QueryEngine* engine, ApplierPoolOptions opts = {});
  ~ApplierPool();

  ApplierPool(const ApplierPool&) = delete;
  ApplierPool& operator=(const ApplierPool&) = delete;

  /// Routes `op` to its edge's slice with the next global timestamp.
  /// Blocks while that slice's queue is at capacity (backpressure holds
  /// only that slice's routing mutex — producers for other slices and the
  /// appliers' watermark refresh keep running; per-slice FIFO of the
  /// global ticket order is preserved). Returns the assigned ts, 0 once
  /// stopped.
  uint64_t Push(EdgeUpdate op);

  /// Deadline-bounded Push. Fast-fails kResourceExhausted (assigning no
  /// ticket) when the target slice is quarantined — its consumer is parked,
  /// so waiting on its full queue would only time out anyway — and returns
  /// kDeadlineExceeded when the slice queue stays full past `timeout_ms`.
  /// On success stores the assigned ts through `*ts` (when non-null).
  Status PushWithDeadline(EdgeUpdate op, double timeout_ms,
                          uint64_t* ts = nullptr);

  /// Outcome of the non-blocking TryPush admission path.
  enum class TryPushResult {
    kOk = 0,       ///< accepted; `*ts_out` holds the assigned ts
    kWouldBlock,   ///< slice queue at capacity; no ticket was assigned
    kQuarantined,  ///< slice applier quarantined; retry after ReviveSlice
    kStopped,      ///< pool stopped
  };

  /// Non-blocking Push — the net server's admission path, which must never
  /// block its event-loop thread. The target slice's queue depth is probed
  /// under the slice routing mutex *before* a ticket is assigned, so a
  /// kWouldBlock outcome burns nothing: the caller parks the op and retries
  /// it later without marching the global ticket source (and with it every
  /// watermark target) forward on each attempt.
  TryPushResult TryPush(EdgeUpdate op, uint64_t* ts_out = nullptr);

  /// Blocks until every op pushed before the call is applied-and-published
  /// or retained behind a quarantine, then heartbeats every quiet slice so
  /// the published watermark reaches the global last-assigned ts. Returns
  /// the first applier's quarantine status (OK while all healthy).
  Status FlushAndWait();

  /// Replays slice `i`'s quarantined redo log from the calling thread
  /// (StreamApplier::Revive) and refreshes the watermark so the healed
  /// slice clock catches back up. OK and a no-op on a healthy slice.
  Status ReviveSlice(size_t i);

  /// True while slice `i`'s applier is quarantined (redo retained, thread
  /// parked). Non-blocking.
  bool slice_quarantined(size_t i) const;

  /// Closes every stream, drains remainders, joins all applier threads.
  /// Idempotent; returns the first sticky failure.
  Status Stop();

  size_t num_appliers() const { return appliers_.size(); }
  /// Last globally assigned stream timestamp. Before the first Push this
  /// is the engine watermark the ticket source resumed from (0 on a
  /// fresh engine).
  uint64_t last_assigned_ts() const;
  /// Total ops routed to slice `i` so far.
  uint64_t ops_routed(size_t i) const;

  /// The routing function, exposed for tests and oracles: every op on edge
  /// (u, v) maps to the same slice, so per-slice FIFO preserves per-edge
  /// order.
  static size_t SliceOf(NodeId u, NodeId v, size_t k);

 private:
  /// Shared body of Push / PushWithDeadline / TryPush: under the slice's
  /// routing mutex, grabs the next global ticket and enqueues `op` on
  /// `slice`, waiting at most `wait_ms` for space (UpdateStream::
  /// PushWithTs); a kNoWait push probes for space before the ticket grab.
  /// On failure the op is un-routed and the reason returned (kClosed once
  /// stopped); on success `*ts` holds the assigned ticket.
  PushError Route(EdgeUpdate op, size_t slice, double wait_ms, uint64_t* ts);

  /// Heartbeat pass (see file comment): advances the clock of every slice
  /// that has consumed everything ever routed to it.
  void RefreshWatermark();

  QueryEngine* engine_;
  ApplierPoolOptions opts_;

  mutable std::mutex mu_;  ///< routing: ticket source + per-slice tails
  /// Per-slice enqueue sequencing (see Route): acquired *before* mu_ and
  /// held across the blocking enqueue, which mu_ never is. Lock order:
  /// route_mu_[s] -> mu_; RefreshWatermark takes only mu_.
  std::unique_ptr<std::mutex[]> route_mu_;
  uint64_t next_ts_ = 1;  ///< re-seeded from the engine watermark + 1
  std::vector<uint64_t> last_routed_;  ///< last ts routed to each slice
  std::vector<uint64_t> routed_count_;
  bool stopped_ = false;

  /// Slice i's queue and its applier; appliers after streams so applier
  /// threads (which touch the streams) are joined first on destruction.
  std::vector<std::unique_ptr<UpdateStream>> streams_;
  std::vector<std::unique_ptr<StreamApplier>> appliers_;
};

}  // namespace gpmv

#endif  // GPMV_STREAM_APPLIER_POOL_H_
