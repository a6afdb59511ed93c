#include "stream/stream_applier.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/stopwatch.h"

namespace gpmv {

StreamApplier::StreamApplier(QueryEngine* engine, UpdateStream* stream,
                             size_t slice, StreamApplierOptions opts,
                             std::function<void()> on_batch_handled)
    : engine_(engine),
      stream_(stream),
      slice_(slice),
      opts_(opts),
      on_batch_handled_(std::move(on_batch_handled)),
      jitter_rng_(opts.retry.jitter_seed ^
                  (slice * 0x9e3779b97f4a7c15ULL + slice)) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.retry.max_attempts == 0) opts_.retry.max_attempts = 1;
  queue_depth_gauge_ =
      engine_->metrics()->FindOrCreateGauge("stream.queue_depth");
  redo_depth_gauge_ =
      engine_->metrics()->FindOrCreateGauge("stream.redo_depth");
  thread_ = std::thread([this] { ApplierLoop(); });
}

StreamApplier::~StreamApplier() { (void)Stop(); }

bool StreamApplier::BackoffWait(size_t attempt) {
  double ms = opts_.retry.backoff_base_ms;
  for (size_t i = 1; i < attempt && ms < opts_.retry.backoff_max_ms; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, opts_.retry.backoff_max_ms);
  // Jitter to [50%, 100%] of nominal: K appliers retrying the same outage
  // decorrelate instead of thundering onto the registry lock together.
  ms *= 0.5 + 0.5 * jitter_rng_.NextDouble();
  std::unique_lock<std::mutex> lk(mu_);
  if (ms <= 0.0) return !quit_;
  return !state_cv_.wait_for(lk,
                             std::chrono::duration<double, std::milli>(ms),
                             [this] { return quit_; });
}

Status StreamApplier::ApplyWithRetry(const std::vector<EdgeUpdate>& batch,
                                     uint64_t ts, size_t* failed_attempts,
                                     size_t* retries) {
  *failed_attempts = 0;
  *retries = 0;
  Status st;
  for (size_t attempt = 1; attempt <= opts_.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      if (!BackoffWait(attempt - 1)) break;  // Stop requested mid-backoff
      ++*retries;
    }
    st = engine_->ApplyStreamBatchSlice(batch, ts, slice_);
    if (st.ok()) return st;
    ++*failed_attempts;
    // Validation failures (unknown node) are deterministic: the batch can
    // never succeed, so burn no backoff on it — quarantine immediately and
    // let Revive (after the operator fixes the world) or Stop resolve it.
    if (st.code() == Status::Code::kInvalidArgument) break;
  }
  return st;
}

void StreamApplier::ApplierLoop() {
  size_t cap = opts_.max_batch;
  StreamDrainResult d;
  for (;;) {
    {
      // Quarantined appliers park instead of draining: every queued op is
      // *retained* behind the failed batch (FIFO order is the redo
      // contract), and the stalled queue is the producers' backpressure.
      std::unique_lock<std::mutex> lk(mu_);
      state_cv_.wait(lk, [this] { return !quarantined_ || quit_; });
      if (quarantined_ && quit_) break;
    }
    if (!stream_->Drain(cap, &d)) break;

    StreamStats delta;
    // The enqueue-side high-water mark is itself monotone, so reading it
    // into each per-batch delta keeps EngineStats.stream's gauge fresh
    // without a second merge point.
    delta.max_queue_depth = stream_->max_depth();

    size_t failed = 0, retries = 0;
    Stopwatch sw;
    Status st = ApplyWithRetry(d.batch, d.through_ts, &failed, &retries);
    const double apply_ms = sw.ElapsedMillis();
    delta.apply_failures = failed;
    delta.retries = retries;

    if (st.ok()) {
      delta.ops_ingested = d.ops_popped;
      delta.ops_coalesced = d.ops_popped - d.batch.size();
      delta.ops_applied = d.batch.size();
      delta.applied_through_ts = d.through_ts;
      delta.RecordBatch(d.batch.size(), d.oldest_wait_ms + apply_ms);
      std::lock_guard<std::mutex> lk(mu_);
      consumed_ts_ = std::max(consumed_ts_, d.through_ts);
    } else {
      // Retries exhausted (or a deterministic failure): quarantine. The
      // batch is retained in the redo log — its op accounting is deferred
      // until the entry resolves (Revive replay or Stop discard), so the
      // ingested == applied + coalesced + dropped invariant holds in every
      // stats snapshot. consumed_ts_ stays put: the slice clock pins the
      // watermark at the last successful apply (no holes).
      delta.quarantines = 1;
      size_t redo_depth;
      {
        std::lock_guard<std::mutex> lk(mu_);
        redo_.push_back(RedoEntry{d.batch, d.through_ts, d.ops_popped});
        redo_depth = redo_.size();
        quarantined_ = true;
        status_ = Status::ResourceExhausted(
            "stream slice " + std::to_string(slice_) +
            " quarantined: " + st.ToString());
      }
      redo_depth_gauge_->Set(static_cast<double>(redo_depth));
      engine_->SetSliceQuarantined(slice_, true);
    }
    engine_->MergeStreamStats(delta);
    // Live depth, not a high-water mark: exporter snapshots between drains
    // see how far the applier is behind right now.
    queue_depth_gauge_->Set(static_cast<double>(d.depth_after));

    consumed_cv_.notify_all();
    if (on_batch_handled_) on_batch_handled_();

    if (st.ok() && opts_.max_lag_ms > 0.0) {
      // AIMD-flavored cap steering: a slow apply halves the next drain so
      // publish lag recovers; a fast one doubles it back toward max_batch
      // (larger batches amortize the freeze + maintenance sweep).
      if (apply_ms > opts_.max_lag_ms) {
        cap = std::max<size_t>(1, cap / 2);
      } else {
        cap = std::min(opts_.max_batch, cap * 2);
      }
    }
  }
  {
    // A Revive may still be replaying the redo log it swapped out; let it
    // finish (Stop's quit_ interrupts its backoffs) so the discard below
    // settles whatever it put back, never racing its accounting.
    std::unique_lock<std::mutex> lk(mu_);
    state_cv_.wait(lk, [this] { return !reviving_; });
  }
  DiscardRemainder();
}

void StreamApplier::DiscardRemainder() {
  StreamStats delta;
  uint64_t last_ts = 0;
  bool was_quarantined;
  {
    std::lock_guard<std::mutex> lk(mu_);
    was_quarantined = quarantined_;
    for (const RedoEntry& e : redo_) {
      delta.ops_ingested += e.ops_popped;
      delta.ops_coalesced += e.ops_popped - e.batch.size();
      delta.ops_dropped += e.batch.size();
      last_ts = std::max(last_ts, e.through_ts);
    }
    redo_.clear();
  }
  // The stream is closed by now (Drain returned false or Stop closed it);
  // whatever producers managed to enqueue behind the quarantine drains
  // here as explicit drops, so flushes and accounting never hang.
  StreamDrainResult d;
  while (stream_->Drain(opts_.max_batch, &d)) {
    delta.ops_ingested += d.ops_popped;
    delta.ops_coalesced += d.ops_popped - d.batch.size();
    delta.ops_dropped += d.batch.size();
    last_ts = std::max(last_ts, d.through_ts);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    consumed_ts_ = std::max(consumed_ts_, last_ts);
  }
  if (delta.ops_ingested != 0 || delta.ops_dropped != 0) {
    engine_->MergeStreamStats(delta);
  }
  // The quarantine is resolved (by dropping); balance the engine's
  // quarantined-slice count so a torn-down slice stops flagging queries
  // as degraded. The sticky status stays kResourceExhausted for Stop().
  if (was_quarantined) engine_->SetSliceQuarantined(slice_, false);
  redo_depth_gauge_->Set(0.0);
  consumed_cv_.notify_all();
}

Status StreamApplier::FlushAndWait() {
  const uint64_t target = stream_->last_accepted_ts();
  Status out;
  {
    std::unique_lock<std::mutex> lk(mu_);
    consumed_cv_.wait(
        lk, [&] { return consumed_ts_ >= target || quarantined_; });
    out = status_;
  }
  StreamStats delta;
  delta.flushes = 1;
  engine_->MergeStreamStats(delta);
  return out;
}

Status StreamApplier::Revive() {
  std::deque<RedoEntry> redo;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (reviving_) {
      return Status::ResourceExhausted("revive already in progress");
    }
    if (!quarantined_ || quit_) return status_;
    reviving_ = true;
    redo.swap(redo_);
  }

  // Replay on the calling thread; the applier stays parked (quarantined_
  // is still set), so slice commits never race.
  StreamStats delta;
  Status st;
  uint64_t replayed_ts = 0;
  while (!redo.empty()) {
    const RedoEntry& e = redo.front();
    size_t failed = 0, retries = 0;
    st = ApplyWithRetry(e.batch, e.through_ts, &failed, &retries);
    delta.apply_failures += failed;
    delta.retries += retries;
    if (!st.ok()) break;
    delta.ops_ingested += e.ops_popped;
    delta.ops_coalesced += e.ops_popped - e.batch.size();
    delta.ops_applied += e.batch.size();
    delta.applied_through_ts = std::max(delta.applied_through_ts,
                                        e.through_ts);
    delta.RecordBatch(e.batch.size(), 0.0);
    replayed_ts = std::max(replayed_ts, e.through_ts);
    redo.pop_front();
  }

  bool healthy;
  Status out;
  size_t redo_depth;
  {
    std::lock_guard<std::mutex> lk(mu_);
    consumed_ts_ = std::max(consumed_ts_, replayed_ts);
    if (redo.empty()) {
      quarantined_ = false;
      status_ = Status::OK();
      delta.revives = 1;
    } else {
      // Nothing enqueues into redo_ while quarantined (the applier is
      // parked), so the swap-back preserves FIFO replay order.
      redo_.swap(redo);
      status_ = Status::ResourceExhausted(
          "stream slice " + std::to_string(slice_) +
          " quarantined: " + st.ToString());
    }
    healthy = !quarantined_;
    out = status_;
    redo_depth = redo_.size();
    reviving_ = false;
  }
  redo_depth_gauge_->Set(static_cast<double>(redo_depth));
  if (healthy) engine_->SetSliceQuarantined(slice_, false);
  engine_->MergeStreamStats(delta);
  state_cv_.notify_all();
  consumed_cv_.notify_all();
  return healthy ? Status::OK() : out;
}

Status StreamApplier::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    quit_ = true;
  }
  state_cv_.notify_all();
  stream_->Close();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return status_;
    stopped_ = true;
  }
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

Status StreamApplier::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

bool StreamApplier::quarantined() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quarantined_;
}

uint64_t StreamApplier::consumed_through_ts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return consumed_ts_;
}

}  // namespace gpmv
