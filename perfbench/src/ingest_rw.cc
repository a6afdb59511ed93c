/// \file ingest_rw.cc
/// \brief `ingest_rw`: writes beside reads. An open-loop producer pushes
/// edge ops through ApplierPool::PushWithDeadline at the fixed rate
/// kIngestRate (~90% inserts of absent edges, ~10% deletes of present
/// ones), scheduled by due time. Beside it kReaders closed-loop readers
/// issue distinct view-contained queries at head, one in kAsOfEvery of them
/// AS OF the newest acked-and-visible ts. A watcher stamps when the published
/// watermark covers each acked ts (WaitForWatermark, in ts order). Stream
/// micro-batching, bounded delta/decremental maintenance and MVCC publish
/// do the work; exclusive-section stalls show on the reader tails.
///
/// Validity: the run fails when the backlog grows over the window, i.e.
/// when the ops pushed but not yet published at window end exceed one
/// micro-batch (ApplierPool max_batch).
///
/// Oracle: after a flush, every hot query is compared with direct
/// simulation on the fixture graph plus the acked ops applied in ts order
/// (per-edge last-op-wins); a sample of AS OF answers is compared with a
/// replay of the ops up to the watermark of the cut that served them.

#include <algorithm>
#include <condition_variable>
#include <unordered_map>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

using namespace gpmv;

namespace {

/// Fixed open-loop ingest rate: about half the highest rate whose
/// update_visible p99 stays within the applier's 20 ms lag target on the
/// 4-core reference machine (README.md, "The ingest_rw rate").
constexpr double kIngestRate = 250.0;
constexpr uint64_t kDeletePercent = 10;
constexpr size_t kReaders = 2;
constexpr uint64_t kAsOfEvery = 10;
constexpr size_t kAsOfSamplesPerReader = 16;
constexpr double kPushDeadlineMs = 1000.0;  // net::ServerOptions default

struct LoggedOp {
  EdgeUpdate op;
  uint64_t ts = 0;
  Clock::time_point due;
  bool measured = false;
};

/// Present-edge set with O(1) uniform sampling and removal.
class EdgeSet {
 public:
  explicit EdgeSet(const Graph& g) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.out_neighbors(u)) Insert(u, v);
    }
  }
  bool Contains(NodeId u, NodeId v) const { return index_.count(Key(u, v)); }
  void Insert(NodeId u, NodeId v) {
    index_.emplace(Key(u, v), edges_.size());
    edges_.emplace_back(u, v);
  }
  void Erase(NodeId u, NodeId v) {
    auto it = index_.find(Key(u, v));
    const size_t i = it->second;
    index_.erase(it);
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      index_[Key(edges_[i].first, edges_[i].second)] = i;
    }
    edges_.pop_back();
  }
  const NodePair& At(size_t i) const { return edges_[i]; }
  size_t size() const { return edges_.size(); }

 private:
  static uint64_t Key(NodeId u, NodeId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  std::vector<NodePair> edges_;
  std::unordered_map<uint64_t, size_t> index_;
};

struct AsOfSample {
  uint64_t query_seed = 0;  ///< ContainedQuery seed
  uint64_t watermark = 0;  ///< the serving cut's watermark
  uint64_t digest = 0;
};

struct ReaderResult {
  CallerStats stats;
  std::vector<double> asof_us;
  std::vector<AsOfSample> samples;
  std::string failure;
};

/// Shared between the producer, the watcher and the readers.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  /// Acked ops in push order, which is ts order: one producer takes every
  /// ticket (guarded by mu).
  std::vector<LoggedOp> log;
  bool producer_done = false;
  std::atomic<uint64_t> visible_ts{0};
};

void ReaderLoop(const PhaseArgs& a, const Window& w, size_t reader,
                Shared* sh, ReaderResult* r) {
  for (uint64_t k = 0; !w.stop.load(std::memory_order_relaxed); ++k) {
    // Distinct queries, so the read cost averages over many shapes and the
    // result cache plays no part (wire_hot measures it).
    const uint64_t query_seed = Mix(Mix(a.in->seed, 700 + reader), k);
    QueryOptions qo;
    const uint64_t visible = sh->visible_ts.load();
    const bool as_of = k % kAsOfEvery == kAsOfEvery - 1 && visible > 0;
    if (as_of) qo.as_of_ts = visible;
    // ExecuteAsOf records no engine spans: such calls stay unattributed.
    Submitted s = TimedSubmit(
        a, w, ContainedQuery(query_seed), qo, as_of ? "query_as_of" : "query",
        as_of ? "client.submit_get_as_of" : "client.submit_get", &r->stats);
    if (!s.ok || !as_of) continue;
    if (s.resp.applied_through_ts > qo.as_of_ts) {
      r->failure = "AS OF " + std::to_string(qo.as_of_ts) +
                   " served a cut at watermark " +
                   std::to_string(s.resp.applied_through_ts);
      return;
    }
    if (s.measured) r->asof_us.push_back(s.us);
    if (r->samples.size() < kAsOfSamplesPerReader) {
      r->samples.push_back({query_seed, s.resp.applied_through_ts,
                            Digest(std::move(s.resp.result))});
    }
  }
}

}  // namespace

void RunIngestRw(const PhaseArgs& a, PhaseResult* out) {
  QueryEngine& engine = a.stack->engine();
  ApplierPool& pool = a.stack->pool();
  const size_t max_batch = a.stack->pool_options().applier.max_batch;
  out->sizes.emplace_back("ingest_rw.rate_ops", std::to_string(kIngestRate));
  out->sizes.emplace_back("ingest_rw.delete_percent",
                          std::to_string(kDeletePercent));

  Shared sh;
  OpCount push_count;
  std::vector<double> push_us, ack_us, late_us;
  auto producer = [&](const Window& w) {
    EdgeSet present(a.in->graph);
    const size_t n = a.in->graph.num_nodes();
    Rng rng(Mix(a.in->seed, 600));
    for (uint64_t i = 0;; ++i) {
      const Clock::time_point due =
          w.start + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * 1e9 / kIngestRate));
      if (due >= w.end) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point t0 = Clock::now();
      EdgeUpdate op;
      if (rng.NextBounded(100) < kDeletePercent) {
        const NodePair e = present.At(rng.NextBounded(present.size()));
        op = EdgeUpdate::Delete(e.first, e.second);
      } else {
        NodeId u, v;
        do {
          u = static_cast<NodeId>(rng.NextBounded(n));
          v = static_cast<NodeId>(rng.NextBounded(n));
        } while (u == v || present.Contains(u, v));
        op = EdgeUpdate::Insert(u, v);
      }
      uint64_t ts = 0;
      const Status st = pool.PushWithDeadline(op, kPushDeadlineMs, &ts);
      const Clock::time_point t1 = Clock::now();
      const bool measured = due >= w.measure_from;
      if (measured) ++push_count.attempted;
      const uint64_t req = a.spans->NextRequest();
      a.spans->Add(req, "stream.push", "", t0, t1);
      if (!st.ok()) {
        if (measured) ++push_count.failed;
        continue;
      }
      if (op.kind == EdgeUpdate::Kind::kDelete) {
        present.Erase(op.u, op.v);
      } else {
        present.Insert(op.u, op.v);
      }
      if (measured) {
        ++push_count.succeeded;
        late_us.push_back(UsBetween(due, t0));
        push_us.push_back(UsBetween(t0, t1));
        ack_us.push_back(UsBetween(due, t1));
      }
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.log.push_back({op, ts, due, measured});
      }
      sh.cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.producer_done = true;
    }
    sh.cv.notify_one();
  };

  std::vector<double> visible_us;
  double chain_depth_max = 0;
  std::string watcher_failure;
  auto watcher = [&] {
    for (size_t j = 0;; ++j) {
      LoggedOp op;
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] { return sh.log.size() > j || sh.producer_done; });
        if (sh.log.size() <= j) return;
        op = sh.log[j];
      }
      const Clock::time_point t0 = Clock::now();
      const Status st = engine.WaitForWatermark(op.ts, 5000.0);
      const Clock::time_point t1 = Clock::now();
      if (!st.ok()) {
        watcher_failure = "watermark never covered ts " + std::to_string(op.ts);
        return;
      }
      sh.visible_ts.store(op.ts);
      chain_depth_max = std::max(
          chain_depth_max, static_cast<double>(engine.mvcc_chain_depth()));
      if (op.measured) {
        visible_us.push_back(UsBetween(op.due, t1));
        const uint64_t req = a.spans->NextRequest();
        a.spans->Add(req, "stream.wait_visible", "", t0, t1);
      }
    }
  };

  std::vector<ReaderResult> readers(kReaders);
  uint64_t watermark_end = 0, assigned_end = 0;
  RunWindow(
      a, out,
      [&](const Window& w, std::vector<std::thread>* threads) {
        threads->emplace_back(producer, std::cref(w));
        threads->emplace_back(watcher);
        for (size_t i = 0; i < kReaders; ++i) {
          threads->emplace_back(ReaderLoop, std::cref(a), std::cref(w), i,
                                &sh, &readers[i]);
        }
      },
      [&] {
        watermark_end = engine.applied_through_ts();
        assigned_end = pool.last_assigned_ts();
      });

  out->ack_us = std::move(ack_us);
  out->push_us = std::move(push_us);
  out->gen_late_us = std::move(late_us);
  out->visible_us = std::move(visible_us);
  out->chain_depth_max = chain_depth_max;
  out->acct["update"] = push_count;
  for (const LoggedOp& op : sh.log) {
    if (op.measured && op.ts <= watermark_end) ++out->updates_applied;
  }
  if (!watcher_failure.empty()) out->Fail(watcher_failure);
  std::vector<AsOfSample> samples;
  for (const ReaderResult& r : readers) {
    if (!r.failure.empty()) out->Fail(r.failure);
    r.stats.MergeInto(out);
    out->asof_us.insert(out->asof_us.end(), r.asof_us.begin(),
                        r.asof_us.end());
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
  }

  // Open-loop validity: the backlog at window end must fit one micro-batch.
  const uint64_t backlog = assigned_end - std::min(assigned_end, watermark_end);
  out->sizes.emplace_back("ingest_rw.backlog_at_end_ops",
                          std::to_string(backlog));
  if (backlog > max_batch) {
    out->Fail("ingest_rw: backlog of " + std::to_string(backlog) +
              " unpublished ops at window end exceeds one micro-batch (" +
              std::to_string(max_batch) + "); the rate is above capacity");
  }

  // Oracle 1: final state after a flush, every hot query at head.
  const Status flushed = pool.FlushAndWait();
  if (!flushed.ok()) out->Fail("flush: " + flushed.ToString());
  auto apply = [](Graph* g, const EdgeUpdate& op) {
    if (op.kind == EdgeUpdate::Kind::kInsert) {
      g->AddEdgeIfAbsent(op.u, op.v);
    } else {
      (void)g->RemoveEdge(op.u, op.v);  // absent: a no-op, as in the engine
    }
  };
  {
    Graph g = a.in->graph;
    for (const LoggedOp& op : sh.log) apply(&g, op.op);
    std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
    QueryOptions qo;
    qo.min_applied_ts = sh.log.empty() ? 0 : sh.log.back().ts;
    for (size_t i = 0; i < a.in->hot.size() && out->correct; ++i) {
      Result<std::future<QueryResponse>> fut = engine.Submit(a.in->hot[i], qo);
      QueryResponse resp;
      if (fut.ok()) resp = fut->get();
      if (!fut.ok() || !resp.status.ok() ||
          Digest(std::move(resp.result)) != OracleDigest(a.in->hot[i], *snap)) {
        out->Fail("ingest_rw: hot query " + std::to_string(i) +
                  " differs from the replay of " +
                  std::to_string(sh.log.size()) + " acked ops");
      }
    }
  }

  // Oracle 2: AS OF answers against a replay of the ops up to the serving
  // cut's watermark.
  std::sort(samples.begin(), samples.end(),
            [](const AsOfSample& x, const AsOfSample& y) {
              return x.watermark < y.watermark;
            });
  Graph g = a.in->graph;
  size_t next = 0;
  for (const AsOfSample& s : samples) {
    while (next < sh.log.size() && sh.log[next].ts <= s.watermark) {
      apply(&g, sh.log[next++].op);
    }
    Graph copy = g;
    std::shared_ptr<const GraphSnapshot> snap = copy.Freeze();
    if (OracleDigest(ContainedQuery(s.query_seed), *snap) != s.digest) {
      out->Fail("ingest_rw: AS OF answer at watermark " +
                std::to_string(s.watermark) +
                " differs from the replay of the ops up to it");
      break;
    }
  }
  out->sizes.emplace_back("ingest_rw.as_of_checked",
                          std::to_string(samples.size()));
}

}  // namespace perfbench
