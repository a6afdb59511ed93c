/// \file mvcc.h
/// \brief MVCC substrate for the engine's published-snapshot chain: version
/// vectors (per-slice applied-through cut arithmetic), the retained chain of
/// committed cuts, RAII pins, and the per-slice stream clock that derives the
/// global watermark as a minimum.
///
/// The engine used to publish exactly one `(snapshot, version, watermark)`
/// triple; every query read the head and every committer overwrote it. This
/// file generalizes that slot into a *chain* of immutable `SnapshotCut`s:
///
///  * A `VersionVector` records, per stream slice, the highest update
///    timestamp that slice has applied. Its `MinSlice`/`MaxSlice` give a
///    cut's contiguous watermark and newest applied op, which is what
///    makes "a consistent cut" a first-class value instead of a single
///    counter.
///  * A `SnapshotCut` is one committed point: the frozen graph, its engine
///    version, the slice vector at commit time, and the min-derived
///    `watermark`. A cut is *prefix-consistent* when `watermark ==
///    max_applied_ts`: the frozen state is exactly the op prefix `<=
///    watermark` (no hole from a lagging slice, no op from the future).
///    Only prefix-consistent cuts are eligible `AS OF` targets — they are
///    the cuts for which replaying the op prefix into a fresh engine is
///    bit-identical ground truth.
///  * A `SnapshotChain` retains a bounded window of recent cuts. `Publish`
///    appends at the head (same-version republish may only *advance* the
///    watermark — late writers lose); `PinHead`/`PinAsOf` hand out RAII
///    `SnapshotRef` pins. GC trims unpinned cuts beyond the retained window
///    on every publish/release; a pinned old cut survives until its last
///    pin is released, then is collected.
///  * A `SliceClock` tracks per-slice applied-through timestamps. Each
///    slice's clock is monotone (commits to one slice serialize at its
///    chain head), and the *global* watermark is `Watermark() == min` over
///    slices — a lagging applier can therefore never publish a hole: the
///    watermark simply waits for it. Idle slices are advanced by explicit
///    heartbeats (`Advance` with no batch) once their router proves no
///    older op can still arrive for them.
///
/// Thread safety: `SnapshotChain` and `SliceClock` are internally
/// synchronized; `VersionVector`, `SnapshotCut`, and `SnapshotRef` are
/// immutable-after-build values with the usual const-is-shareable rule.

#ifndef GPMV_GRAPH_MVCC_H_
#define GPMV_GRAPH_MVCC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/snapshot.h"

namespace gpmv {

/// Per-slice applied-through timestamps; the coordinate system of a
/// consistent cut. Slice i's component is the highest stream timestamp
/// slice i has applied (0 = nothing yet).
class VersionVector {
 public:
  VersionVector() = default;
  explicit VersionVector(size_t num_slices) : w_(num_slices, 0) {}

  size_t num_slices() const { return w_.size(); }
  bool empty() const { return w_.empty(); }
  uint64_t slice(size_t i) const { return w_[i]; }
  void set_slice(size_t i, uint64_t ts) { w_[i] = ts; }

  /// Minimum component — the contiguous watermark this cut supports: every
  /// op with ts <= MinSlice() has been applied by its slice. 0 for the
  /// empty vector.
  uint64_t MinSlice() const;
  /// Maximum component — the newest op any slice has applied. 0 for the
  /// empty vector.
  uint64_t MaxSlice() const;

  bool operator==(const VersionVector& o) const { return w_ == o.w_; }
  bool operator!=(const VersionVector& o) const { return !(*this == o); }

  /// "[3, 0, 7]" — for traces and test failure messages.
  std::string ToString() const;

 private:
  std::vector<uint64_t> w_;
};

/// One committed point of the engine: an immutable frozen graph plus the
/// cut coordinates it was published at.
struct SnapshotCut {
  /// Engine commit sequence (the snapshot's `version()`); strictly
  /// increasing along the chain.
  uint64_t version = 0;
  /// Per-slice applied-through timestamps at commit time.
  VersionVector slices;
  /// Min-derived contiguous watermark: every streamed op with ts <=
  /// watermark is reflected in `snapshot`.
  uint64_t watermark = 0;
  /// Newest streamed op reflected in `snapshot` (max over `slices`).
  uint64_t max_applied_ts = 0;
  /// The frozen graph at this cut.
  std::shared_ptr<const GraphSnapshot> snapshot;

  /// True iff the frozen state is exactly the op prefix <= watermark —
  /// no slice ran ahead. These are the only valid `AS OF` targets.
  bool prefix_consistent() const { return watermark == max_applied_ts; }
};

class SnapshotChain;

/// RAII pin on one retained cut. While any `SnapshotRef` to a cut is
/// alive, the chain's GC will not collect it (or any metadata needed to
/// find it). Movable, not copyable; releasing re-runs GC so an unpinned
/// out-of-window cut is collected promptly.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&& o) noexcept;
  SnapshotRef& operator=(SnapshotRef&& o) noexcept;
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;
  ~SnapshotRef();

  bool valid() const { return cut_ != nullptr; }
  const SnapshotCut& cut() const { return *cut_; }
  const std::shared_ptr<const SnapshotCut>& cut_ptr() const { return cut_; }

  /// Drop the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotChain;
  SnapshotRef(SnapshotChain* chain, std::shared_ptr<const SnapshotCut> cut)
      : chain_(chain), cut_(std::move(cut)) {}

  SnapshotChain* chain_ = nullptr;
  std::shared_ptr<const SnapshotCut> cut_ = nullptr;
};

struct SnapshotChainOptions {
  /// Historical cuts retained behind the head for `AS OF` pins (the head
  /// itself is always retained). Unpinned cuts older than the newest
  /// `retain` are collected at the next publish/release.
  size_t retain = 8;
};

/// The retained chain of committed cuts. See file comment.
class SnapshotChain {
 public:
  explicit SnapshotChain(SnapshotChainOptions opts = {}) : opts_(opts) {}

  /// Append `cut` as the new head. `cut.version` must be >= the current
  /// head's version: a *newer* version extends the chain; a *same*-version
  /// publish (watermark-only heartbeat racing another) replaces the head
  /// iff it advances the watermark, else it is dropped; an *older* version
  /// is dropped (a late heartbeat that lost the race to a real commit).
  /// Runs GC on the tail.
  void Publish(SnapshotCut cut);

  /// Pin the newest cut. Invalid ref iff nothing was ever published.
  SnapshotRef PinHead();

  /// Pin the newest retained *prefix-consistent* cut whose watermark is
  /// <= `ts` — the `AS OF ts` target. NotFound when no retained cut
  /// qualifies (`ts` predates the retained window or falls before the
  /// first commit).
  Result<SnapshotRef> PinAsOf(uint64_t ts);

  uint64_t head_version() const;
  uint64_t head_watermark() const;
  size_t depth() const;          ///< retained cuts, head included
  size_t pinned_cuts() const;    ///< cuts with >= 1 live pin
  uint64_t gc_collected() const; ///< total cuts collected since startup

 private:
  friend class SnapshotRef;
  void Unpin(const SnapshotCut* cut);
  void CollectLocked();

  SnapshotChainOptions opts_;
  mutable std::mutex mu_;
  /// Oldest → newest; strictly increasing version.
  std::deque<std::shared_ptr<const SnapshotCut>> chain_;
  /// version → live pin count (entries erased at zero).
  std::vector<std::pair<uint64_t, size_t>> pins_;
  uint64_t gc_collected_ = 0;
};

/// Per-slice applied-through clock; the engine's single watermark atomic
/// derives from `Watermark()` (min over slices). `Advance` is monotone per
/// slice — commits to one slice serialize at its chain head, so a stale
/// advance is simply ignored.
class SliceClock {
 public:
  explicit SliceClock(size_t num_slices = 1) : w_(num_slices) {}

  /// Reset to `num_slices` zeroed slices (stream topology change; only
  /// valid while no streamed ops are in flight).
  void Reset(size_t num_slices);

  /// Record slice `s` having applied through `ts`. Monotone: a stale `ts`
  /// is a no-op. Returns the new global watermark (min over slices).
  uint64_t Advance(size_t s, uint64_t ts);

  size_t num_slices() const;
  VersionVector Current() const;
  uint64_t Watermark() const;      ///< min over slices
  uint64_t MaxApplied() const;     ///< max over slices

 private:
  mutable std::mutex mu_;
  VersionVector w_;
};

}  // namespace gpmv

#endif  // GPMV_GRAPH_MVCC_H_
