#include "stream/applier_pool.h"

#include <string>
#include <utility>

namespace gpmv {

namespace {

/// 64-bit finalizer (splitmix64): decorrelates the packed (u, v) key from
/// node-id locality so slices load-balance on real graphs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t ApplierPool::SliceOf(NodeId u, NodeId v, size_t k) {
  if (k <= 1) return 0;
  const uint64_t key =
      (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
  return static_cast<size_t>(Mix64(key) % k);
}

ApplierPool::ApplierPool(QueryEngine* engine, ApplierPoolOptions opts)
    : engine_(engine), opts_(opts) {
  if (opts_.num_appliers == 0) opts_.num_appliers = 1;
  const size_t k = opts_.num_appliers;
  engine_->ConfigureStreamSlices(k);
  // Continue the engine's ticket sequence rather than restarting at 1: on
  // an engine with prior streamed history the published watermark never
  // regresses, so fresh tickets below it would make min_applied_ts waits
  // trivially (and wrongly) satisfied before the new ops are applied.
  // ConfigureStreamSlices seeded every slice clock to this same value.
  next_ts_ = engine_->applied_through_ts() + 1;
  route_mu_ = std::make_unique<std::mutex[]>(k);
  last_routed_.assign(k, 0);
  routed_count_.assign(k, 0);
  streams_.reserve(k);
  appliers_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    streams_.push_back(std::make_unique<UpdateStream>(opts_.stream));
  }
  for (size_t i = 0; i < k; ++i) {
    appliers_.push_back(std::make_unique<StreamApplier>(
        engine_, streams_[i].get(), i, opts_.applier,
        [this] { RefreshWatermark(); }));
  }
}

ApplierPool::~ApplierPool() { (void)Stop(); }

PushError ApplierPool::Route(EdgeUpdate op, size_t slice, double wait_ms,
                             uint64_t* ts_out) {
  // The slice's routing mutex covers ticket assignment *through* enqueue,
  // so two producers racing ops onto one slice cannot enqueue out of
  // ticket order (each slice stream must see a strictly increasing ts
  // subsequence). The pool mutex itself is only held for the non-blocking
  // ticket grab — never across the enqueue — so the applier threads'
  // RefreshWatermark can always acquire it: backpressure on a full slice
  // queue must never wedge the consumer whose drain relieves it.
  std::lock_guard<std::mutex> slk(route_mu_[slice]);
  // A no-wait push probes for space before the ticket grab. route_mu_
  // serializes this slice's producers and the consumer only shrinks the
  // queue, so "space now" still holds at the enqueue below, and a full
  // queue burns no ticket: the caller parks the op and retries it later
  // without marching the global ticket source (and with it every
  // watermark target) forward on each attempt.
  if (wait_ms <= 0.0 &&
      streams_[slice]->depth() >= streams_[slice]->capacity()) {
    return PushError::kWouldBlock;
  }
  uint64_t ts, prev_tail;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return PushError::kClosed;
    ts = next_ts_++;
    prev_tail = last_routed_[slice];
    last_routed_[slice] = ts;
    ++routed_count_[slice];
  }
  PushError err = PushError::kNone;
  if (streams_[slice]->PushWithTs(op, ts, wait_ms, &err) == 0) {
    // Not accepted (Stop raced, or the deadline passed): un-route — we
    // still hold the slice mutex, so nobody else has touched this slice's
    // tail. The global ticket is burned (next_ts_ may have moved on),
    // which only makes the watermark conservative: a gap can never let it
    // cover an op that was not applied.
    std::lock_guard<std::mutex> lk(mu_);
    last_routed_[slice] = prev_tail;
    --routed_count_[slice];
    return err;
  }
  *ts_out = ts;
  return PushError::kNone;
}

uint64_t ApplierPool::Push(EdgeUpdate op) {
  uint64_t ts = 0;
  (void)Route(op, SliceOf(op.u, op.v, streams_.size()),
              UpdateStream::kWaitForever, &ts);
  return ts;
}

Status ApplierPool::PushWithDeadline(EdgeUpdate op, double timeout_ms,
                                     uint64_t* ts_out) {
  const size_t slice = SliceOf(op.u, op.v, streams_.size());
  // Quarantine fast path, checked before any ticket is assigned: the
  // slice's consumer is parked, so a full queue can only time out — tell
  // the producer *why* (retryable after ReviveSlice) instead of burning
  // its deadline. Checked again implicitly by the timeout below for the
  // quarantined-after-we-looked race.
  if (appliers_[slice]->quarantined()) {
    return Status::ResourceExhausted("stream slice " + std::to_string(slice) +
                                     " quarantined");
  }
  uint64_t ts = 0;
  switch (Route(op, slice, timeout_ms, &ts)) {
    case PushError::kNone:
      if (ts_out != nullptr) *ts_out = ts;
      return Status::OK();
    case PushError::kTimeout:
    case PushError::kWouldBlock:  // a non-positive deadline on a full queue
      return Status::DeadlineExceeded("stream slice " + std::to_string(slice) +
                                      " push timed out (backpressure)");
    case PushError::kStaleTicket:
      // Unreachable while route_mu_ serializes this slice's producers;
      // report it honestly if that invariant ever breaks.
      return Status::Internal("stream slice " + std::to_string(slice) +
                              " rejected a stale ticket");
    default:
      return Status::Internal("applier pool stopped");
  }
}

ApplierPool::TryPushResult ApplierPool::TryPush(EdgeUpdate op,
                                                uint64_t* ts_out) {
  const size_t slice = SliceOf(op.u, op.v, streams_.size());
  // Quarantine fast path, like PushWithDeadline: the consumer is parked,
  // so admitting into (or even probing) its queue is pointless.
  if (appliers_[slice]->quarantined()) return TryPushResult::kQuarantined;
  uint64_t ts = 0;
  switch (Route(op, slice, UpdateStream::kNoWait, &ts)) {
    case PushError::kNone:
      if (ts_out != nullptr) *ts_out = ts;
      return TryPushResult::kOk;
    case PushError::kWouldBlock:
      return TryPushResult::kWouldBlock;
    default:
      return TryPushResult::kStopped;
  }
}

void ApplierPool::RefreshWatermark() {
  // Ticket assignment bumps last_routed_ under the pool mutex *before*
  // the op is enqueued (the enqueue runs outside mu_, serialized per
  // slice by route_mu_), so "applier i consumed through everything ever
  // routed to slice i" still proves slice i quiet through the global
  // last-assigned ts: a mid-flight op would have bumped last_routed_[i]
  // past anything its applier can have consumed. Quiet slices heartbeat
  // forward; a slice with a pending (or mid-flight) op keeps its clock
  // (and the min-derived watermark) put.
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t global = next_ts_ - 1;
  if (global == 0) return;
  for (size_t i = 0; i < appliers_.size(); ++i) {
    // A quarantined applier retains (rather than applies) its failed
    // batch: its slice clock must stay at the last successful apply,
    // pinning the published watermark there — never heartbeat it. After
    // a successful ReviveSlice the status is OK again and the next
    // refresh lets the slice catch back up.
    if (!appliers_[i]->status().ok()) continue;
    if (last_routed_[i] == global) continue;  // its own commit advances it
    if (appliers_[i]->consumed_through_ts() >= last_routed_[i]) {
      engine_->AdvanceStreamSlice(i, global);
    }
  }
}

Status ApplierPool::FlushAndWait() {
  Status out;
  for (auto& a : appliers_) {
    Status st = a->FlushAndWait();
    if (out.ok() && !st.ok()) out = st;
  }
  // All per-slice queues drained: every *healthy* slice is quiet through
  // the global ts, so the published watermark catches up to it here — or,
  // when an applier is quarantined, stays pinned at its last successful
  // apply (its ops are retained in the redo log, not applied).
  RefreshWatermark();
  return out;
}

Status ApplierPool::ReviveSlice(size_t i) {
  if (i >= appliers_.size()) {
    return Status::InvalidArgument("no such stream slice");
  }
  Status st = appliers_[i]->Revive();
  // On success the slice clock advanced through the replayed commits; the
  // refresh heartbeats it the rest of the way (it is quiet now — its queue
  // was empty behind the quarantine, or the parked applier resumes and the
  // per-batch refresh takes over).
  RefreshWatermark();
  return st;
}

bool ApplierPool::slice_quarantined(size_t i) const {
  return i < appliers_.size() && appliers_[i]->quarantined();
}

Status ApplierPool::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return Status::OK();
    stopped_ = true;
  }
  Status out;
  for (auto& s : streams_) s->Close();
  for (auto& a : appliers_) {
    Status st = a->Stop();
    if (out.ok() && !st.ok()) out = st;
  }
  return out;
}

uint64_t ApplierPool::last_assigned_ts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_ts_ - 1;
}

uint64_t ApplierPool::ops_routed(size_t i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return routed_count_[i];
}

}  // namespace gpmv
