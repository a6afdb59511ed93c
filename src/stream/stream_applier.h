/// \file stream_applier.h
/// \brief The background drain half of one stream slice: an applier thread
/// pulls timestamped edge ops off its slice's UpdateStream, coalesces them
/// into adaptive micro-batches, and commits each through the engine's
/// two-phase maintenance path (QueryEngine::ApplyStreamBatchSlice —
/// deletions, then insert deltas), so snapshots publish continuously while
/// Submit and Query keep running. Queries never wait on ingestion: the only
/// exclusive section is the per-micro-batch apply. ApplierPool (stream/
/// applier_pool.h) owns every applier, one per slice, and is the only way
/// ops enter the stream.
///
/// Adaptive micro-batching: the applier drains whatever is queued, up to a
/// moving cap. While an apply is in flight the queue accumulates, so batch
/// size tracks the ingest-rate/apply-latency ratio by itself; the cap
/// steers publish lag — an apply slower than `max_lag_ms` halves it (AIMD),
/// a fast one lets it grow back toward `max_batch`. The resulting batch
/// sizes are recorded in `StreamStats::batch_size_hist`.
///
/// Failure contract — retry, quarantine, revive (docs/ROBUSTNESS.md):
/// a failed micro-batch apply is *retried in place* with capped, jittered
/// exponential backoff (StreamRetryOptions); the engine's apply validates
/// all-or-nothing before mutating, so re-applying a failed batch is always
/// sound. While retrying, the consumed watermark does not advance — the
/// slice clock keeps pinning the global watermark at the last successful
/// apply, preserving the no-holes invariant. A batch that exhausts its
/// attempts (or fails deterministically: kInvalidArgument never retries)
/// *quarantines* the applier: the batch moves to a per-slice redo log, the
/// thread parks instead of draining, and the sticky status becomes
/// kResourceExhausted — producers feel queue backpressure (or fast-fail
/// through ApplierPool's quarantine check) rather than having ops silently
/// discarded. Nothing is dropped while quarantined; the *only* drop path
/// is Stop() on a quarantined applier, which discards the redo log and the
/// queued remainder as explicit ops_dropped. Revive() replays the redo log
/// (with the same retry policy) from the calling thread while the applier
/// is parked; on success the applier resumes draining and the slice clock
/// reintegrates through the replayed commits.
///
/// Op accounting is deferred for retained batches: a quarantined batch's
/// ops count into ops_ingested/applied/coalesced only when its redo entry
/// resolves (replayed or discarded), so the cross-counter invariant
/// `ops_ingested == ops_applied + ops_coalesced + ops_dropped` holds in
/// every observed stats snapshot — the chaos suite's zero-silent-drops
/// check rides on it.
///
/// Quiesce: FlushAndWait() blocks until every op enqueued before the call
/// has been applied and published, or the applier quarantined (returning
/// the quarantine status) — ApplierPool::FlushAndWait quiesces through it,
/// which is what lets the equivalence suites compare streamed state against
/// batch oracles deterministically. Stop() closes the stream, drains the
/// remainder, joins the thread, and returns the final status; the
/// destructor does the same (discarding the status).

#ifndef GPMV_STREAM_STREAM_APPLIER_H_
#define GPMV_STREAM_STREAM_APPLIER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/query_engine.h"
#include "stream/update_stream.h"

namespace gpmv {

/// Bounded-retry policy for failed micro-batch applies.
struct StreamRetryOptions {
  /// Total apply attempts per batch before quarantine (clamped to >= 1;
  /// 1 = no retries). kInvalidArgument failures (deterministic validation
  /// errors) quarantine immediately regardless.
  size_t max_attempts = 4;
  /// First backoff delay; doubles per retry (jittered to [50%, 100%] of
  /// nominal), capped at backoff_max_ms. 0 retries immediately.
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  /// Jitter RNG seed (mixed with the slice index so K appliers draw
  /// distinct streams).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

/// Micro-batching knobs.
struct StreamApplierOptions {
  /// Upper bound on ops per micro-batch (post-coalesce batches are smaller).
  size_t max_batch = 256;
  /// Target publish-lag bound: an apply slower than this halves the drain
  /// cap, a faster one doubles it back (never above max_batch, never below
  /// 1). 0 disables adaptation (the cap stays at max_batch).
  double max_lag_ms = 20.0;
  /// Failed-apply retry policy (see file comment).
  StreamRetryOptions retry;
};

/// See file comment.
class StreamApplier {
 public:
  /// Starts the applier thread immediately. Batches commit as stream slice
  /// `slice` (QueryEngine::ApplyStreamBatchSlice; the engine's slice
  /// topology must already cover it). `on_batch_handled` runs after every
  /// handled micro-batch (applied or quarantined), on the applier thread,
  /// outside any applier lock — the pool's watermark refresh. `engine` and
  /// `stream` must outlive this object (or its Stop()).
  StreamApplier(QueryEngine* engine, UpdateStream* stream, size_t slice,
                StreamApplierOptions opts,
                std::function<void()> on_batch_handled);
  ~StreamApplier();

  StreamApplier(const StreamApplier&) = delete;
  StreamApplier& operator=(const StreamApplier&) = delete;

  /// Blocks until every op enqueued before the call is applied-and-
  /// published, or the applier quarantined; returns the sticky status (OK
  /// while healthy, kResourceExhausted while quarantined). Safe from any
  /// thread, concurrently with producers still pushing — the watermark is
  /// captured at entry, so later pushes don't extend the wait.
  Status FlushAndWait();

  /// Replays the quarantined redo log from the calling thread (the applier
  /// stays parked meanwhile), with the configured retry policy per entry.
  /// On full success the applier resumes draining, its status resets to
  /// OK, and the slice clock reintegrates through the replayed commits;
  /// on failure the unreplayed remainder stays quarantined and the cause
  /// is returned. OK and a no-op when healthy.
  Status Revive();

  /// Closes the stream, drains the remainder, joins the applier thread and
  /// returns the final status. On a quarantined applier this *discards*
  /// the redo log and queued remainder as explicit ops_dropped — the one
  /// place retained ops die, and it is observable. Idempotent.
  Status Stop();

  /// Sticky status: OK while healthy, kResourceExhausted (wrapping the
  /// apply error) while quarantined. Non-blocking.
  Status status() const;

  /// True while the redo log holds an unreplayed failed batch and the
  /// applier is parked. Non-blocking.
  bool quarantined() const;

  /// Timestamp through which ops have been consumed (applied, or
  /// discarded by a quarantined Stop). Does not advance past a retained
  /// (quarantined) batch. Non-blocking.
  uint64_t consumed_through_ts() const;

 private:
  /// One retained failed micro-batch plus the deferred accounting needed
  /// to settle its ops when it resolves.
  struct RedoEntry {
    std::vector<EdgeUpdate> batch;  ///< coalesced, as originally drained
    uint64_t through_ts = 0;
    size_t ops_popped = 0;  ///< pre-coalesce queue elements it covered
  };

  void ApplierLoop();
  /// Applies one batch with bounded, jittered-backoff retries. Counts
  /// failed attempts / performed retries into the out-params; aborts the
  /// backoff early (returning the last error) when Stop is requested.
  Status ApplyWithRetry(const std::vector<EdgeUpdate>& batch, uint64_t ts,
                        size_t* failed_attempts, size_t* retries);
  /// Jittered exponential backoff before retry number `attempt` (1-based).
  /// False when interrupted by Stop.
  bool BackoffWait(size_t attempt);
  /// Shutdown path for a quarantined applier: settles the redo log and
  /// drains the closed stream, counting everything as explicit drops.
  void DiscardRemainder();

  QueryEngine* engine_;
  UpdateStream* stream_;
  const size_t slice_;
  StreamApplierOptions opts_;
  const std::function<void()> on_batch_handled_;
  /// Live gauges (stream.queue_depth / stream.redo_depth), resolved once
  /// from the engine's registry.
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* redo_depth_gauge_ = nullptr;
  /// Backoff jitter stream. Touched only by whichever thread currently
  /// runs applies (the applier thread, or a Revive caller while the
  /// applier is parked) — handoffs synchronize through mu_.
  Rng jitter_rng_;

  mutable std::mutex mu_;
  std::condition_variable consumed_cv_;
  /// Park/backoff wake channel: notified by Stop() and Revive().
  std::condition_variable state_cv_;
  uint64_t consumed_ts_ = 0;  ///< watermark: drained-and-settled through here
  Status status_;             ///< sticky: OK, or the quarantine status
  std::deque<RedoEntry> redo_;
  bool quarantined_ = false;
  bool reviving_ = false;
  bool quit_ = false;  ///< Stop requested: interrupts parks and backoffs
  bool stopped_ = false;

  std::thread thread_;  ///< last member: joined by Stop()/dtor
};

}  // namespace gpmv

#endif  // GPMV_STREAM_STREAM_APPLIER_H_
