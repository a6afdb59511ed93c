#include "graph/mvcc.h"

#include <algorithm>
#include <sstream>

namespace gpmv {

// ---------------------------------------------------------------------------
// VersionVector

uint64_t VersionVector::MinSlice() const {
  if (w_.empty()) return 0;
  return *std::min_element(w_.begin(), w_.end());
}

uint64_t VersionVector::MaxSlice() const {
  if (w_.empty()) return 0;
  return *std::max_element(w_.begin(), w_.end());
}

std::string VersionVector::ToString() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < w_.size(); ++i) {
    if (i) os << ", ";
    os << w_[i];
  }
  os << ']';
  return os.str();
}

// ---------------------------------------------------------------------------
// SnapshotRef

SnapshotRef::SnapshotRef(SnapshotRef&& o) noexcept
    : chain_(o.chain_), cut_(std::move(o.cut_)) {
  o.chain_ = nullptr;
  o.cut_ = nullptr;
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& o) noexcept {
  if (this != &o) {
    Release();
    chain_ = o.chain_;
    cut_ = std::move(o.cut_);
    o.chain_ = nullptr;
    o.cut_ = nullptr;
  }
  return *this;
}

SnapshotRef::~SnapshotRef() { Release(); }

void SnapshotRef::Release() {
  if (chain_ != nullptr && cut_ != nullptr) {
    chain_->Unpin(cut_.get());
  }
  chain_ = nullptr;
  cut_ = nullptr;
}

// ---------------------------------------------------------------------------
// SnapshotChain

void SnapshotChain::Publish(SnapshotCut cut) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!chain_.empty()) {
    const SnapshotCut& head = *chain_.back();
    if (cut.version < head.version) return;  // late heartbeat, lost the race
    if (cut.version == head.version) {
      // Watermark-only republish of the same commit: keep whichever cut
      // advanced further. Replacing the head is safe — pins hold their own
      // shared_ptr, and a pin count keyed by version survives the swap.
      if (cut.watermark <= head.watermark) return;
      chain_.back() = std::make_shared<const SnapshotCut>(std::move(cut));
      return;
    }
  }
  chain_.push_back(std::make_shared<const SnapshotCut>(std::move(cut)));
  CollectLocked();
}

SnapshotRef SnapshotChain::PinHead() {
  std::lock_guard<std::mutex> lk(mu_);
  if (chain_.empty()) return SnapshotRef();
  std::shared_ptr<const SnapshotCut> cut = chain_.back();
  auto it = std::find_if(pins_.begin(), pins_.end(),
                         [&](const auto& p) { return p.first == cut->version; });
  if (it == pins_.end()) {
    pins_.emplace_back(cut->version, 1);
  } else {
    ++it->second;
  }
  return SnapshotRef(this, std::move(cut));
}

Result<SnapshotRef> SnapshotChain::PinAsOf(uint64_t ts) {
  std::lock_guard<std::mutex> lk(mu_);
  // Newest retained prefix-consistent cut with watermark <= ts.
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    const auto& cut = *it;
    if (!cut->prefix_consistent() || cut->watermark > ts) continue;
    auto pit =
        std::find_if(pins_.begin(), pins_.end(),
                     [&](const auto& p) { return p.first == cut->version; });
    if (pit == pins_.end()) {
      pins_.emplace_back(cut->version, 1);
    } else {
      ++pit->second;
    }
    return SnapshotRef(this, cut);
  }
  return Status::NotFound(
      "AS OF " + std::to_string(ts) +
      ": no retained prefix-consistent cut at or before that timestamp");
}

uint64_t SnapshotChain::head_version() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chain_.empty() ? 0 : chain_.back()->version;
}

uint64_t SnapshotChain::head_watermark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chain_.empty() ? 0 : chain_.back()->watermark;
}

size_t SnapshotChain::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chain_.size();
}

size_t SnapshotChain::pinned_cuts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pins_.size();
}

uint64_t SnapshotChain::gc_collected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return gc_collected_;
}

void SnapshotChain::Unpin(const SnapshotCut* cut) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find_if(pins_.begin(), pins_.end(),
                         [&](const auto& p) { return p.first == cut->version; });
  GPMV_DCHECK(it != pins_.end() && it->second > 0);
  if (it != pins_.end() && --it->second == 0) {
    pins_.erase(it);
    CollectLocked();
  }
}

void SnapshotChain::CollectLocked() {
  // Keep the head and the newest `retain` historical cuts unconditionally;
  // older cuts survive only while pinned.
  if (chain_.size() <= opts_.retain + 1) return;
  const size_t keep_from = chain_.size() - (opts_.retain + 1);
  std::deque<std::shared_ptr<const SnapshotCut>> kept;
  for (size_t i = 0; i < chain_.size(); ++i) {
    const auto& cut = chain_[i];
    if (i >= keep_from) {
      kept.push_back(cut);
      continue;
    }
    const bool pinned =
        std::any_of(pins_.begin(), pins_.end(),
                    [&](const auto& p) { return p.first == cut->version; });
    if (pinned) {
      kept.push_back(cut);
    } else {
      ++gc_collected_;
    }
  }
  chain_.swap(kept);
}

// ---------------------------------------------------------------------------
// SliceClock

void SliceClock::Reset(size_t num_slices) {
  std::lock_guard<std::mutex> lk(mu_);
  w_ = VersionVector(num_slices);
}

uint64_t SliceClock::Advance(size_t s, uint64_t ts) {
  std::lock_guard<std::mutex> lk(mu_);
  GPMV_DCHECK(s < w_.num_slices());
  if (s < w_.num_slices() && ts > w_.slice(s)) w_.set_slice(s, ts);
  return w_.MinSlice();
}

size_t SliceClock::num_slices() const {
  std::lock_guard<std::mutex> lk(mu_);
  return w_.num_slices();
}

VersionVector SliceClock::Current() const {
  std::lock_guard<std::mutex> lk(mu_);
  return w_;
}

uint64_t SliceClock::Watermark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return w_.MinSlice();
}

uint64_t SliceClock::MaxApplied() const {
  std::lock_guard<std::mutex> lk(mu_);
  return w_.MaxSlice();
}

}  // namespace gpmv
