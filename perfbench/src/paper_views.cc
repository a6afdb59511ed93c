/// \file paper_views.cc
/// \brief `paper_views`: the paper's workload as a service. kClients
/// in-process callers, closed loop, Submit then get; every query distinct
/// (fresh seed per request): ~80% view-contained GenerateAmazonQuery
/// shapes (MatchJoin plans), ~20% random label patterns no view contains
/// (direct plans). No writes, so the result cache's reuse distance is
/// infinite and the net layer does no work. Planning, view pinning, the
/// MatchJoin fixpoint and direct simulation do the work.
///
/// Oracle: every response's digest is compared with direct bounded
/// simulation of the same query on the static fixture graph. The graph
/// never changes, so the oracle runs after the window (off the clock) on
/// the queries actually issued.

#include "bench.h"

namespace perfbench {

using namespace gpmv;

namespace {

struct Issued {
  uint64_t index = 0;
  uint64_t digest = 0;
};

struct CallerResult {
  CallerStats stats;
  std::vector<Issued> issued;
};

void CallerLoop(const PhaseArgs& a, const Window& w, size_t caller,
                CallerResult* r) {
  for (uint64_t i = 0; !w.stop.load(std::memory_order_relaxed); ++i) {
    bool contained = false;
    Submitted s =
        TimedSubmit(a, w, PaperQuery(a.in->seed, caller, i, &contained),
                    QueryOptions(), "query", "client.submit_get", &r->stats);
    if (s.ok) r->issued.push_back({i, Digest(std::move(s.resp.result))});
  }
}

}  // namespace

void RunPaperViews(const PhaseArgs& a, PhaseResult* out) {
  std::vector<CallerResult> callers(kClients);
  RunWindow(a, out, [&](const Window& w, std::vector<std::thread>* threads) {
    for (size_t i = 0; i < kClients; ++i) {
      threads->emplace_back(CallerLoop, std::cref(a), std::cref(w), i,
                            &callers[i]);
    }
  });

  size_t issued = 0;
  for (const CallerResult& c : callers) {
    c.stats.MergeInto(out);
    issued += c.issued.size();
  }
  out->sizes.emplace_back("paper_views.distinct_queries",
                          std::to_string(issued));

  // Oracle over every answered query, split across kClients threads.
  Graph g = a.in->graph;
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  std::vector<std::string> mismatch(kClients);
  std::vector<std::thread> checkers;
  for (size_t c = 0; c < kClients; ++c) {
    checkers.emplace_back([&, c] {
      for (const Issued& is : callers[c].issued) {
        bool contained = false;
        const Pattern q = PaperQuery(a.in->seed, c, is.index, &contained);
        if (OracleDigest(q, *snap) != is.digest) {
          mismatch[c] = "paper_views: caller " + std::to_string(c) +
                        " query " + std::to_string(is.index) +
                        (contained ? " (view-contained)" : " (direct)") +
                        " differs from direct simulation";
          return;
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  for (const std::string& m : mismatch) {
    if (!m.empty()) out->Fail(m);
  }
}

}  // namespace perfbench
