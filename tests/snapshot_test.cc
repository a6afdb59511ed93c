/// Unit tests of the frozen CSR snapshot layer: structural parity with the
/// mutable Graph, freeze caching, and the delta-aware incremental re-freeze.

#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "workload/graph_gen.h"

namespace gpmv {
namespace {

/// Asserts every adjacency row, label range, label set and attribute of
/// `snap` equals `g`'s.
void ExpectStructuralParity(const Graph& g, const GraphSnapshot& snap) {
  ASSERT_EQ(g.num_nodes(), snap.num_nodes());
  ASSERT_EQ(g.num_edges(), snap.num_edges());
  ASSERT_EQ(g.num_labels(), snap.num_labels());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<NodeId>& out = g.out_neighbors(v);
    NodeSpan sout = snap.out_neighbors(v);
    ASSERT_EQ(out.size(), sout.size()) << "out row " << v;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), sout.begin()))
        << "out row " << v;
    const std::vector<NodeId>& in = g.in_neighbors(v);
    NodeSpan sin = snap.in_neighbors(v);
    ASSERT_EQ(in.size(), sin.size()) << "in row " << v;
    EXPECT_TRUE(std::equal(in.begin(), in.end(), sin.begin()))
        << "in row " << v;
    const std::vector<LabelId>& ls = g.labels(v);
    LabelSpan sls = snap.labels(v);
    ASSERT_EQ(ls.size(), sls.size());
    EXPECT_TRUE(std::equal(ls.begin(), ls.end(), sls.begin()));
    EXPECT_TRUE(g.attrs(v) == snap.attrs(v));
  }
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    EXPECT_EQ(g.LabelName(l), snap.LabelName(l));
    EXPECT_EQ(snap.FindLabel(g.LabelName(l)), l);
    const std::vector<NodeId>& idx = g.NodesWithLabel(l);
    NodeSpan sidx = snap.NodesWithLabel(l);
    ASSERT_EQ(idx.size(), sidx.size());
    EXPECT_TRUE(std::equal(idx.begin(), idx.end(), sidx.begin()));
  }
}

Graph MakeGraph(uint64_t seed, size_t n = 200, size_t m = 600) {
  RandomGraphOptions go;
  go.num_nodes = n;
  go.num_edges = m;
  go.num_labels = 5;
  go.seed = seed;
  return GenerateRandomGraph(go);
}

TEST(SnapshotTest, MirrorsGraphStructure) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    Graph g = MakeGraph(seed);
    ExpectStructuralParity(g, *GraphSnapshot::Build(g, g.version()));
  }
}

TEST(SnapshotTest, HasEdgeAndHasLabelAgree) {
  Graph g = MakeGraph(11);
  auto snap = GraphSnapshot::Build(g, g.version());
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = 0; v < g.num_nodes(); v += 11) {
      EXPECT_EQ(g.HasEdge(u, v), snap->HasEdge(u, v));
    }
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      EXPECT_EQ(g.HasLabel(u, l), snap->HasLabel(u, l));
    }
  }
  EXPECT_EQ(snap->FindLabel("no-such-label"), kInvalidLabel);
  EXPECT_TRUE(snap->NodesWithLabel(kInvalidLabel).empty());
}

TEST(SnapshotTest, FreezeCachesUntilMutation) {
  Graph g = MakeGraph(3);
  auto s1 = g.Freeze();
  auto s2 = g.Freeze();
  EXPECT_EQ(s1.get(), s2.get());  // unchanged graph: same snapshot object

  ASSERT_TRUE(g.AddEdge(0, 1).ok() || g.RemoveEdge(0, 1).ok());
  auto s3 = g.Freeze();
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_GT(s3->version(), s1->version());
  ExpectStructuralParity(g, *s3);
}

TEST(SnapshotTest, IncrementalRefreezeMatchesFullBuild) {
  for (uint64_t seed : {5u, 19u}) {
    Graph g = MakeGraph(seed);
    auto before = g.Freeze();

    // A mixed batch touching a handful of rows.
    std::vector<std::pair<NodeId, NodeId>> added;
    for (NodeId u = 1; u < 60; u += 9) {
      NodeId v = (u * 13 + 1) % static_cast<NodeId>(g.num_nodes());
      if (u != v && g.AddEdgeIfAbsent(u, v)) added.emplace_back(u, v);
    }
    ASSERT_FALSE(added.empty());
    ASSERT_TRUE(g.RemoveEdge(added[0].first, added[0].second).ok());

    auto refrozen = g.Freeze();
    // Edge-only updates share the node section with the prior snapshot.
    EXPECT_TRUE(refrozen->SharesNodeSection(*before));
    EXPECT_EQ(refrozen->node_section_version(), before->node_section_version());
    ExpectStructuralParity(g, *refrozen);
  }
}

TEST(SnapshotTest, NodeAdditionForcesFullRebuild) {
  Graph g = MakeGraph(2);
  auto before = g.Freeze();
  NodeId w = g.AddNode("L0");
  ASSERT_TRUE(g.AddEdge(0, w).ok());
  auto after = g.Freeze();
  EXPECT_FALSE(after->SharesNodeSection(*before));
  ExpectStructuralParity(g, *after);
}

TEST(SnapshotTest, AttributeMutationInvalidatesNodeSection) {
  Graph g = MakeGraph(4);
  auto before = g.Freeze();
  g.mutable_attrs(1)->Set("score", 42);
  auto after = g.Freeze();
  EXPECT_NE(before.get(), after.get());
  EXPECT_FALSE(after->SharesNodeSection(*before));
  EXPECT_NE(after->attrs(1).Get("score"), nullptr);
}

TEST(SnapshotTest, AttributesAreSharedCopyOnWrite) {
  Graph g = MakeGraph(5);
  g.mutable_attrs(1)->Set("score", 1);
  auto before = g.Freeze();
  Graph copy = g;
  // One attribute vector serves the graph, its copy and its snapshot.
  EXPECT_EQ(copy.shared_attrs(), g.shared_attrs());
  EXPECT_EQ(&before->attrs(1), &g.attrs(1));

  // Writing through either graph copies first: the other graph and the
  // published snapshot keep what they read.
  copy.mutable_attrs(1)->Set("score", 2);
  g.mutable_attrs(1)->Set("score", 3);
  g.AddNode("L0", {});
  EXPECT_EQ(before->attrs(1).Get("score")->as_int(), 1);
  EXPECT_EQ(copy.attrs(1).Get("score")->as_int(), 2);
  EXPECT_EQ(g.attrs(1).Get("score")->as_int(), 3);
  EXPECT_EQ(g.Freeze()->attrs(1).Get("score")->as_int(), 3);
  EXPECT_EQ(copy.num_nodes() + 1, g.num_nodes());
}

TEST(SnapshotTest, RefreezeAfterManyBatchesStaysConsistent) {
  Graph g = MakeGraph(9, 120, 300);
  g.Freeze();
  for (int round = 0; round < 5; ++round) {
    for (NodeId u = 0; u < g.num_nodes(); u += 5) {
      NodeId v = (u + round + 1) % static_cast<NodeId>(g.num_nodes());
      if (u == v) continue;
      if (!g.AddEdgeIfAbsent(u, v)) (void)g.RemoveEdge(u, v);
    }
    ExpectStructuralParity(g, *g.Freeze());
  }
}

TEST(SnapshotTest, ApproxBytesIsPlausible) {
  Graph g = MakeGraph(6);
  auto snap = g.Freeze();
  // At least the flat adjacency arrays.
  EXPECT_GE(snap->ApproxBytes(), 2 * g.num_edges() * sizeof(NodeId));
}

TEST(SnapshotTest, EmptyGraph) {
  Graph g;
  auto snap = g.Freeze();
  EXPECT_EQ(snap->num_nodes(), 0u);
  EXPECT_EQ(snap->num_edges(), 0u);
  EXPECT_FALSE(snap->HasEdge(0, 1));
}

}  // namespace
}  // namespace gpmv
