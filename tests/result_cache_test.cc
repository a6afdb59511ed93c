#include "engine/result_cache.h"

#include <gtest/gtest.h>

#include "core/maintenance.h"
#include "engine/query_engine.h"
#include "engine/view_cache.h"
#include "pattern/pattern_builder.h"
#include "test_util.h"

namespace gpmv {
namespace {

ResultCache::EpochFn At(uint64_t version) {
  return ResultCache::AtGraphVersion(version);
}

ResultStamp Stamp(uint64_t version) { return ResultCache::GraphStamp(version); }

/// A head reader: the graph at `version`, view v at `epochs[v]` (0 = cold).
ResultCache::EpochFn Head(uint64_t version, std::vector<uint64_t> epochs) {
  return [version, epochs](uint32_t source) -> uint64_t {
    if (source == ResultCache::kGraphSource) return version;
    return source < epochs.size() ? epochs[source] : 0;
  };
}

MatchResult SmallResult(size_t pairs) {
  Pattern p = PatternBuilder().Node("A").Node("B").Edge("A", "B").Build();
  MatchResult r = MatchResult::Empty(p);
  for (size_t i = 0; i < pairs; ++i) {
    r.mutable_edge_matches(0)->emplace_back(static_cast<NodeId>(i),
                                            static_cast<NodeId>(i + 1));
  }
  r.set_matched(true);
  r.DeriveNodeMatches(p);
  return r;
}

TEST(ResultCacheTest, HitAfterInsertSameVersion) {
  ResultCache cache;
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q1", At(1), &out));
  cache.Insert("q1", Stamp(1), SmallResult(3));
  ASSERT_TRUE(cache.Lookup("q1", At(1), &out));
  EXPECT_EQ(out.TotalMatches(), 3u);
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, VersionMismatchDropsEntry) {
  ResultCache cache;
  cache.Insert("q1", Stamp(1), SmallResult(3));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q1", At(2), &out));  // graph moved on
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.stale_drops, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes_cached, 0u);
  // Not even the old version hits anymore — the entry is gone.
  EXPECT_FALSE(cache.Lookup("q1", At(1), &out));
}

TEST(ResultCacheTest, LruEvictionUnderBudget) {
  ResultCacheOptions opts;
  opts.budget_bytes = 400;  // fits two 10-pair results, not three
  ResultCache cache(opts);
  cache.Insert("a", Stamp(1), SmallResult(10));
  cache.Insert("b", Stamp(1), SmallResult(10));
  MatchResult out;
  ASSERT_TRUE(cache.Lookup("a", At(1), &out));  // "b" becomes LRU
  cache.Insert("c", Stamp(1), SmallResult(10));
  ResultCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_cached, opts.budget_bytes);
  EXPECT_FALSE(cache.Lookup("b", At(1), &out));  // the LRU victim
  EXPECT_TRUE(cache.Lookup("a", At(1), &out) ||
              cache.Lookup("c", At(1), &out));
}

TEST(ResultCacheTest, OversizedResultNotCached) {
  ResultCacheOptions opts;
  opts.budget_bytes = 64;
  ResultCache cache(opts);
  cache.Insert("big", Stamp(1), SmallResult(1000));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("big", At(1), &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisables) {
  ResultCacheOptions opts;
  opts.budget_bytes = 0;
  ResultCache cache(opts);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("q", Stamp(1), SmallResult(1));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q", At(1), &out));
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups do not count
}

TEST(ResultCacheTest, ViewStampSurvivesVersionBump) {
  ResultCache cache;
  cache.Insert("q", {{0, 3}, {2, 5}}, SmallResult(3));
  MatchResult out;
  ASSERT_TRUE(cache.Lookup("q", Head(1, {3, 9, 5}), &out));
  // Later graph versions, and a view the answer never read moving on, leave
  // the joined extensions as they were: the answer still serves.
  EXPECT_TRUE(cache.Lookup("q", Head(7, {3, 10, 5}), &out));
  EXPECT_EQ(out.TotalMatches(), 3u);
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.stale_drops, 0u);
}

TEST(ResultCacheTest, ViewStampDropsWhenOneEpochChanges) {
  ResultCache cache;
  cache.Insert("q", {{0, 3}, {2, 5}}, SmallResult(3));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q", Head(1, {3, 9, 6}), &out));
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.stale_drops, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes_cached, 0u);
  // The entry is gone, so not even the stamped epochs hit anymore.
  EXPECT_FALSE(cache.Lookup("q", Head(1, {3, 9, 5}), &out));
}

TEST(ResultCacheTest, GraphStampKeepsExactVersionSemantics) {
  ResultCache cache;
  MatchResult out;
  // A graph-read answer (direct or partial plan) serves only at its version,
  // whatever the views do.
  cache.Insert("direct", Stamp(4), SmallResult(2));
  EXPECT_TRUE(cache.Lookup("direct", Head(4, {1, 2}), &out));
  EXPECT_FALSE(cache.Lookup("direct", Head(5, {1, 2}), &out));
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  // An AS OF answer resolves the graph to its historical cut.
  cache.Insert("direct\n#asof", Stamp(2), SmallResult(1));
  EXPECT_TRUE(cache.Lookup("direct\n#asof", At(2), &out));
  EXPECT_FALSE(cache.Lookup("direct\n#asof", At(3), &out));
  EXPECT_EQ(cache.stats().stale_drops, 2u);
}

TEST(ResultCacheTest, EvictedAndRematerializedViewMisses) {
  Graph g = testutil::ChainGraph({"A", "B"});
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  ViewCache views;
  const uint32_t v = views.Register(
      {"v_ab", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build()});
  EXPECT_EQ(views.epoch(v), 0u);  // cold
  auto materialize = [&] {
    ViewExtension ext;
    std::vector<std::vector<NodeId>> relation;
    ASSERT_TRUE(RefreshViewExtension(views.views().view(v), *snap,
                                     /*seeded=*/false, &ext, &relation)
                    .ok());
    views.Install(v, std::move(ext), std::move(relation), /*pin=*/false);
  };
  materialize();
  const uint64_t first = views.epoch(v);
  EXPECT_GT(first, 0u);

  ResultCache cache;
  auto current = [&](uint32_t source) -> uint64_t {
    return source == ResultCache::kGraphSource ? 1 : views.epoch(source);
  };
  cache.Insert("q", {{v, first}}, SmallResult(1));
  MatchResult out;
  ASSERT_TRUE(cache.Lookup("q", current, &out));

  // Eviction zeroes the epoch; the re-materialized extension gets a new one
  // even though its matches are the same, and the old stamp never matches.
  ASSERT_TRUE(views.Evict(v));
  EXPECT_EQ(views.epoch(v), 0u);
  materialize();
  EXPECT_GT(views.epoch(v), first);
  EXPECT_FALSE(cache.Lookup("q", current, &out));
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(ResultCacheEngineTest, RepeatQueryServedFromResultCache) {
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  Pattern q = testutil::ChainPattern({"A", "B", "C"});

  QueryResponse first = engine.Query(q);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result_cached);
  QueryResponse second = engine.Query(q);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.result_cached);
  EXPECT_TRUE(first.result == second.result);

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.result_cache.hits, 1u);
  EXPECT_GE(stats.result_cache.inserts, 1u);
}

TEST(ResultCacheEngineTest, UpdateBatchInvalidatesByVersion) {
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  Pattern q = testutil::ChainPattern({"A", "B"});

  QueryResponse before = engine.Query(q);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.result.edge_matches(0).size(), 1u);

  // Deleting A -> B changes the answer; the memoized entry must not serve.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(0, 1)}).ok());
  QueryResponse after = engine.Query(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cached);
  EXPECT_FALSE(after.result.matched());

  // And the post-update result memoizes under the new version.
  QueryResponse again = engine.Query(q);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.result_cached);
  EXPECT_TRUE(again.result == after.result);
}

TEST(ResultCacheEngineTest, MatchJoinAnswerSurvivesUpdatesItsViewsIgnore) {
  // Two A -> B -> C chains; the query joins views A -> B and B -> C.
  Graph g;
  for (int i = 0; i < 2; ++i) {
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
    ASSERT_TRUE(g.AddEdge(a, b).ok());
    ASSERT_TRUE(g.AddEdge(b, c).ok());
  }
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  ASSERT_TRUE(engine
                  .RegisterView("v_ab", PatternBuilder()
                                            .Node("A").Node("B")
                                            .Edge("A", "B").Build())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterView("v_bc", PatternBuilder()
                                            .Node("B").Node("C")
                                            .Edge("B", "C").Build())
                  .ok());
  Pattern q = testutil::ChainPattern({"A", "B", "C"});
  QueryResponse first = engine.Query(q);
  ASSERT_TRUE(first.status.ok());
  ASSERT_EQ(first.plan, PlanKind::kMatchJoin);

  // C -> A (nodes 2 -> 3) is in neither view's extension: the graph version
  // moves, the joined extensions do not, and the memo still serves.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(2, 3)}).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  QueryResponse kept = engine.Query(q);
  ASSERT_TRUE(kept.status.ok());
  EXPECT_TRUE(kept.result_cached);
  EXPECT_GT(kept.snapshot_version, first.snapshot_version);
  EXPECT_TRUE(kept.result == testutil::OracleMatch(q, g));
  EXPECT_EQ(engine.stats().view_extension_changes, 0u);

  // A -> B across the chains (0 -> 4) adds a pair to v_ab: the answer joined
  // it, so the entry drops and the query recomputes.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(0, 4)}).ok());
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  QueryResponse redone = engine.Query(q);
  ASSERT_TRUE(redone.status.ok());
  EXPECT_FALSE(redone.result_cached);
  EXPECT_TRUE(redone.result == testutil::OracleMatch(q, g));
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.view_extension_changes, 1u);
  EXPECT_EQ(stats.result_cache.stale_drops, 1u);
}

TEST(ResultCacheEngineTest, SharedMinimizedFormSharesOneEntry) {
  // Two textually different queries minimizing to the same quotient: the
  // second one hits the first one's entry and expands through its own map.
  Graph g = testutil::ChainGraph({"A", "B"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);

  Pattern q1 = PatternBuilder().Node("A").Node("B").Edge("A", "B").Build();
  // Duplicate B-node collapses onto q1's shape under minimization.
  Pattern q2;
  {
    uint32_t a = q2.AddNode("A");
    uint32_t b1 = q2.AddNode("B");
    uint32_t b2 = q2.AddNode("B");
    EXPECT_TRUE(q2.AddEdge(a, b1).ok());
    EXPECT_TRUE(q2.AddEdge(a, b2).ok());
  }
  QueryResponse r1 = engine.Query(q1);
  ASSERT_TRUE(r1.status.ok());
  QueryResponse r2 = engine.Query(q2);
  ASSERT_TRUE(r2.status.ok());
  if (r2.result_cached) {  // same quotient — the expected case
    EXPECT_EQ(engine.stats().result_cache.hits, 1u);
    EXPECT_EQ(r2.result.edge_matches(0), r2.result.edge_matches(1));
  }
  MatchResult oracle = testutil::OracleMatch(q2, g);
  EXPECT_TRUE(r2.result == oracle);
}

}  // namespace
}  // namespace gpmv
