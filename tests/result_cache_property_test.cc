/// \file result_cache_property_test.cc
/// \brief Property tests for the result cache's dependency stamps: a
/// memoized MatchJoin answer outlives update batches that leave its views'
/// extensions unchanged, and never outlives one that changes them.
///
/// Each test drives hot GenerateAmazonQuery shapes over the bounded Amazon
/// views, with the result cache on, through seeded random insert and delete
/// batches, and checks every answer against MatchBoundedSimulation on the
/// graph at the response's snapshot_version. A failing run logs its seed;
/// re-run with GPMV_STRESS_SEED=<seed> to replay it (docs/TESTING.md).

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace gpmv {
namespace {

constexpr size_t kGraphNodes = 1500;
constexpr size_t kHotShapes = 8;

MatchResult Oracle(const Pattern& q, const GraphSnapshot& snap) {
  Result<MatchResult> direct = MatchBoundedSimulation(q, snap);
  MatchResult r = direct.ok() ? std::move(direct).value() : MatchResult();
  r.Normalize();
  return r;
}

/// The first kHotShapes 3-4 node shapes with a non-empty answer on `g`:
/// updates aimed at those answers then change what the views hold.
std::vector<Pattern> HotShapes(uint64_t seed, Graph& g) {
  std::vector<Pattern> hot;
  for (uint64_t s = seed * 1000; hot.size() < kHotShapes; ++s) {
    const uint32_t nodes = 3 + static_cast<uint32_t>(s % 2);
    const uint32_t edges = nodes - 1 + static_cast<uint32_t>((s / 2) % 2);
    Pattern q = GenerateAmazonQuery(nodes, edges, 2, s);
    if (Oracle(q, *g.Freeze()).matched()) hot.push_back(std::move(q));
  }
  return hot;
}

std::unique_ptr<QueryEngine> MakeEngine(const Graph& g, size_t threads,
                                        size_t view_budget_bytes) {
  EngineOptions opts;
  opts.pool.num_threads = threads;
  if (view_budget_bytes > 0) opts.cache.budget_bytes = view_budget_bytes;
  auto engine = std::make_unique<QueryEngine>(g, opts);
  const ViewSet views = AmazonViews(2);
  for (const ViewDefinition& def : views.views()) {
    EXPECT_TRUE(engine->RegisterView(def.name, def.pattern).ok());
  }
  EXPECT_TRUE(engine->WarmViews().ok());
  return engine;
}

/// One to three edge updates, applied to `mirror` with the engine's batch
/// semantics (every deletion before every insertion). Half are uniform:
/// inserts of absent edges between random nodes, which mostly leave every
/// view unchanged. Half aim at a hot answer on the mirror: delete a matched
/// pair's first hop, or insert an edge from a matched source to another
/// node with its target's label — these change the views the answer joined.
std::vector<EdgeUpdate> RandomBatch(const std::vector<Pattern>& hot,
                                    std::mt19937_64* rng, Graph* mirror) {
  const size_t n = mirror->num_nodes();
  std::vector<EdgeUpdate> batch;
  const size_t size = 1 + (*rng)() % 3;
  while (batch.size() < size) {
    if ((*rng)() % 2 == 0) {
      const NodeId u = static_cast<NodeId>((*rng)() % n);
      const NodeId v = static_cast<NodeId>((*rng)() % n);
      if (u != v && !mirror->HasEdge(u, v)) {
        batch.push_back(EdgeUpdate::Insert(u, v));
      }
      continue;
    }
    const Pattern& q = hot[(*rng)() % hot.size()];
    const MatchResult answer = Oracle(q, *mirror->Freeze());
    const uint32_t e = static_cast<uint32_t>((*rng)() % q.num_edges());
    if (!answer.matched() || answer.edge_matches(e).empty()) continue;
    const std::vector<NodePair>& pairs = answer.edge_matches(e);
    const auto [x, y] = pairs[(*rng)() % pairs.size()];
    const std::vector<NodeId>& out = mirror->out_neighbors(x);
    if ((*rng)() % 2 == 0 && !out.empty()) {
      const NodeId hop = mirror->HasEdge(x, y) ? y : out[(*rng)() % out.size()];
      batch.push_back(EdgeUpdate::Delete(x, hop));
    } else {
      const std::vector<NodeId>& peers =
          mirror->NodesWithLabel(mirror->labels(y).front());
      const NodeId w = peers[(*rng)() % peers.size()];
      if (w != x && !mirror->HasEdge(x, w)) {
        batch.push_back(EdgeUpdate::Insert(x, w));
      }
    }
  }
  for (const EdgeUpdate& up : batch) {
    if (up.kind == EdgeUpdate::Kind::kDelete) {
      (void)mirror->RemoveEdge(up.u, up.v);
    }
  }
  for (const EdgeUpdate& up : batch) {
    if (up.kind == EdgeUpdate::Kind::kInsert) {
      mirror->AddEdgeIfAbsent(up.u, up.v);
    }
  }
  return batch;
}

struct SequentialRun {
  size_t queries = 0;
  size_t batches = 0;
  /// Hits served at a newer graph version than the one the answer was
  /// computed at: the answer survived at least one batch.
  size_t survived_hits = 0;
  /// Misses whose recomputed answer differs from the one last served for
  /// the shape: a stale memo hit would have been wrong there.
  size_t changed_answers = 0;
  EngineStats stats;
};

/// Interleaves hot queries (~80%) with random batches (~20%) on one thread;
/// every answer is checked against the oracle on the mirror graph, which is
/// the graph at the response's version.
SequentialRun RunSequential(uint64_t seed, size_t steps,
                            size_t view_budget_bytes) {
  SequentialRun run;
  Graph mirror = GenerateAmazonLike(kGraphNodes, seed);
  const std::vector<Pattern> hot = HotShapes(seed, mirror);
  std::unique_ptr<QueryEngine> engine =
      MakeEngine(mirror, /*threads=*/1, view_budget_bytes);
  std::mt19937_64 rng(seed);
  // Oracle answers at the current version, per shape.
  std::map<size_t, MatchResult> oracle;
  // Version each shape's memo entry was last computed at, and the answer
  // last served for it.
  std::map<size_t, uint64_t> computed_at;
  std::map<size_t, MatchResult> served;
  for (size_t step = 0; step < steps; ++step) {
    if (rng() % 5 == 0) {
      std::vector<EdgeUpdate> batch = RandomBatch(hot, &rng, &mirror);
      EXPECT_TRUE(engine->ApplyUpdates(batch).ok());
      oracle.clear();
      ++run.batches;
      continue;
    }
    const size_t i = rng() % hot.size();
    QueryResponse resp = engine->Query(hot[i]);
    ++run.queries;
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.snapshot_version, mirror.version());
    auto it = oracle.find(i);
    if (it == oracle.end()) {
      it = oracle.emplace(i, Oracle(hot[i], *mirror.Freeze())).first;
    }
    EXPECT_TRUE(resp.result == it->second)
        << "seed " << seed << " step " << step << " shape " << i
        << (resp.result_cached ? " (memo hit)" : " (computed)");
    if (!resp.result_cached) {
      computed_at[i] = resp.snapshot_version;
      auto last = served.find(i);
      if (last != served.end() && !(last->second == resp.result)) {
        ++run.changed_answers;
      }
    } else if (resp.snapshot_version > computed_at[i]) {
      ++run.survived_hits;
    }
    served[i] = resp.result;
  }
  run.stats = engine->stats();
  return run;
}

TEST(ResultCachePropertyTest, HotSetUnderRandomBatchesMatchesOracle) {
  for (uint64_t seed : testutil::StressSeeds({11, 23, 31})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SequentialRun run = RunSequential(seed, /*steps=*/250,
                                      /*view_budget_bytes=*/0);
    EXPECT_GT(run.batches, 0u);
    // Every hot shape plans as MatchJoin, so its memo entry is
    // view-stamped.
    EXPECT_EQ(run.stats.plans_match_join, run.queries);
    // Some batches leave the views a hot query joined unchanged, and some
    // change its answer.
    EXPECT_GT(run.survived_hits, 0u);
    EXPECT_GT(run.changed_answers, 0u);
    EXPECT_LT(run.stats.view_extension_changes,
              run.batches * AmazonViews(2).card());
  }
}

TEST(ResultCachePropertyTest, TinyViewBudgetForcesRematerialization) {
  for (uint64_t seed : testutil::StressSeeds({7, 19})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Room for a few extensions, not all twelve: queries evict each
    // other's views, and a re-materialized view gets a new epoch.
    SequentialRun run = RunSequential(seed, /*steps=*/150,
                                      /*view_budget_bytes=*/16u << 10);
    EXPECT_GT(run.stats.cache.evictions, 0u);
    EXPECT_GT(run.stats.cache.installs, AmazonViews(2).card());
    EXPECT_GT(run.changed_answers, 0u);
  }
}

TEST(ResultCachePropertyTest, BoundedDeleteLengtheningADistanceMisses) {
  // A -> B directly and through X: the view A -> B (bound 2) holds the pair
  // at distance 1, and a query A -> B (bound 1) joins it.
  Graph g;
  const NodeId a = g.AddNode("A");
  const NodeId b = g.AddNode("B");
  const NodeId x = g.AddNode("X");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, b).ok());
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  ASSERT_TRUE(engine
                  .RegisterView("v_ab2", PatternBuilder()
                                             .Node("A").Node("B")
                                             .Edge("A", "B", 2).Build())
                  .ok());
  Pattern q = PatternBuilder().Node("A").Node("B").Edge("A", "B", 1).Build();
  QueryResponse first = engine.Query(q);
  ASSERT_TRUE(first.status.ok());
  ASSERT_EQ(first.plan, PlanKind::kMatchJoin);
  ASSERT_TRUE(first.result.matched());
  ASSERT_TRUE(engine.Query(q).result_cached);

  // Deleting A -> B keeps the pair (A, B) in the view at distance 2: the
  // extension changed without losing a pair, and the bound-1 answer is now
  // empty. The memoized one must not serve.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(a, b)}).ok());
  ASSERT_TRUE(g.RemoveEdge(a, b).ok());
  QueryResponse after = engine.Query(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cached);
  EXPECT_FALSE(after.result.matched());
  EXPECT_TRUE(after.result == Oracle(q, *g.Freeze()));
  EXPECT_EQ(engine.stats().view_extension_changes, 1u);
}

TEST(ResultCachePropertyTest, QueriesRacingBatchesMatchOracleAtTheirVersion) {
  for (uint64_t seed : testutil::StressSeeds({5, 13})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Graph mirror = GenerateAmazonLike(kGraphNodes, seed);
    const std::vector<Pattern> hot = HotShapes(seed, mirror);
    // A tight view budget keeps cold views materializing while batches
    // land, so pinning races the updates too.
    std::unique_ptr<QueryEngine> engine =
        MakeEngine(mirror, /*threads=*/3, /*view_budget_bytes=*/16u << 10);
    std::map<uint64_t, std::shared_ptr<const GraphSnapshot>> at_version;
    at_version[mirror.version()] = mirror.Freeze();
    std::mt19937_64 rng(seed);
    std::vector<std::pair<size_t, std::future<QueryResponse>>> pending;
    for (int round = 0; round < 30; ++round) {
      for (int k = 0; k < 6; ++k) {
        const size_t i = rng() % hot.size();
        Result<std::future<QueryResponse>> fut = engine->Submit(hot[i]);
        ASSERT_TRUE(fut.ok()) << fut.status().ToString();
        pending.emplace_back(i, std::move(*fut));
      }
      // Batches land on this thread while the workers answer.
      std::vector<EdgeUpdate> batch = RandomBatch(hot, &rng, &mirror);
      ASSERT_TRUE(engine->ApplyUpdates(batch).ok());
      at_version[mirror.version()] = mirror.Freeze();
    }
    std::map<std::pair<size_t, uint64_t>, MatchResult> oracle;
    for (auto& [i, fut] : pending) {
      QueryResponse resp = fut.get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      auto snap = at_version.find(resp.snapshot_version);
      ASSERT_NE(snap, at_version.end())
          << "unknown snapshot_version " << resp.snapshot_version;
      const auto key = std::make_pair(i, resp.snapshot_version);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        it = oracle.emplace(key, Oracle(hot[i], *snap->second)).first;
      }
      EXPECT_TRUE(resp.result == it->second)
          << "shape " << i << " at version " << resp.snapshot_version
          << (resp.result_cached ? " (memo hit)" : " (computed)");
    }
    EXPECT_GT(engine->stats().cache.evictions, 0u);
  }
}

}  // namespace
}  // namespace gpmv
