/// \file graph.h
/// \brief The data-graph substrate: a directed graph with multi-labeled,
/// attributed nodes (paper Section II-A).
///
/// A data graph is G = (V, E, L) where L(v) is a *set* of labels drawn from
/// an alphabet Σ; nodes additionally carry typed attributes evaluated by
/// pattern predicates. Labels are interned per graph into dense `LabelId`s;
/// a label index (label -> nodes) supports candidate enumeration during
/// matching. Edges are kept in sorted adjacency vectors (out and in) and can
/// be removed, which the incremental view-maintenance module relies on.

#ifndef GPMV_GRAPH_GRAPH_H_
#define GPMV_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/attribute.h"

namespace gpmv {

class GraphSnapshot;

using NodeId = uint32_t;
using LabelId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LabelId kInvalidLabel = static_cast<LabelId>(-1);

/// A directed data graph with labeled, attributed nodes.
class Graph {
 public:
  Graph() = default;

  /// Adds a node carrying the given labels (interned) and attributes.
  /// Returns the new node's id (ids are dense, starting at 0).
  NodeId AddNode(const std::vector<std::string>& labels,
                 AttributeSet attrs = {});

  /// Convenience: single-label node.
  NodeId AddNode(const std::string& label, AttributeSet attrs = {});

  /// Adds edge (u, v). Fails on invalid endpoints, self-parallel duplicates.
  Status AddEdge(NodeId u, NodeId v);

  /// Adds edge (u, v) unless it already exists; returns true if added.
  /// Endpoints must be valid.
  bool AddEdgeIfAbsent(NodeId u, NodeId v);

  /// Removes edge (u, v); NotFound if absent.
  Status RemoveEdge(NodeId u, NodeId v);

  bool HasEdge(NodeId u, NodeId v) const;

  size_t num_nodes() const { return out_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// |G| = number of nodes plus number of edges (Table I).
  size_t Size() const { return num_nodes() + num_edges(); }

  const std::vector<NodeId>& out_neighbors(NodeId v) const { return out_[v]; }
  const std::vector<NodeId>& in_neighbors(NodeId v) const { return in_[v]; }
  size_t out_degree(NodeId v) const { return out_[v].size(); }
  size_t in_degree(NodeId v) const { return in_[v].size(); }

  const std::vector<LabelId>& labels(NodeId v) const { return node_labels_[v]; }
  bool HasLabel(NodeId v, LabelId label) const;
  const AttributeSet& attrs(NodeId v) const { return (*node_attrs_)[v]; }
  AttributeSet* mutable_attrs(NodeId v) {
    // Conservatively assume the caller writes: the node section of any
    // cached snapshot goes stale.
    ++version_;
    ++node_section_version_;
    return &OwnAttrs()[v];
  }

  /// Every node's attributes, shared copy-on-write with copies of this
  /// graph and with its snapshots: edge updates never touch them, so one
  /// vector serves every version instead of one copy per graph and per
  /// node section. A mutation through this graph copies it first while
  /// anyone else still holds it.
  std::shared_ptr<const std::vector<AttributeSet>> shared_attrs() const {
    return node_attrs_;
  }

  /// Interns `name`, creating a fresh LabelId on first sight.
  LabelId InternLabel(const std::string& name);

  /// Looks up `name`; kInvalidLabel if never interned.
  LabelId FindLabel(const std::string& name) const;

  const std::string& LabelName(LabelId id) const { return label_names_[id]; }
  size_t num_labels() const { return label_names_.size(); }

  /// All nodes carrying `label` (empty for unknown labels).
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

  /// First label of `v` rendered as a string ("" for unlabeled nodes);
  /// used by IO and debugging.
  std::string DescribeNode(NodeId v) const;

  /// Freezes the current graph state into an immutable CSR snapshot
  /// (graph/snapshot.h) and caches it: repeated calls without intervening
  /// mutations return the same snapshot. After edge-only mutations the
  /// re-freeze is incremental — only the adjacency rows touched since the
  /// last freeze are rebuilt, and the node section (labels, label index,
  /// attributes) is shared with the previous snapshot. Not safe to call
  /// concurrently with itself or with mutations (callers serialize, e.g.
  /// the engine freezes under its exclusive registry lock).
  std::shared_ptr<const GraphSnapshot> Freeze();

  /// Degrades the next Freeze() after a mutation to a full row rebuild by
  /// poisoning the dirty-row set, as if it had overflowed kMaxDirtyRows.
  /// The produced snapshot is identical — only slower to build — and the
  /// cached current snapshot is untouched, so this never changes what
  /// queries read. The `snapshot.refreeze` fault point (common/fault.h)
  /// uses it to model losing the incremental-freeze fast path.
  void InvalidateIncrementalFreeze() { dirty_overflow_ = true; }

  /// Monotone counter bumped by every mutation; a cached snapshot is
  /// current iff its version() equals this.
  uint64_t version() const { return version_; }

  /// Counter bumped only by node-section mutations (AddNode,
  /// mutable_attrs); edge updates leave it unchanged, which is what makes
  /// incremental re-freezing sound.
  uint64_t node_section_version() const { return node_section_version_; }

 private:
  /// Records that v's out- resp. in-adjacency changed since the last
  /// freeze. Falls back to "rebuild everything" when the dirty set grows
  /// past kMaxDirtyRows.
  void MarkEdgeDirty(NodeId out_node, NodeId in_node);

  /// node_attrs_ for writing; copies it first while it is shared.
  std::vector<AttributeSet>& OwnAttrs();

  static constexpr size_t kMaxDirtyRows = 1u << 16;

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::vector<std::vector<LabelId>> node_labels_;
  std::shared_ptr<std::vector<AttributeSet>> node_attrs_ =
      std::make_shared<std::vector<AttributeSet>>();
  size_t num_edges_ = 0;

  std::vector<std::string> label_names_;
  std::unordered_map<std::string, LabelId> label_ids_;
  std::vector<std::vector<NodeId>> label_index_;  // LabelId -> nodes
  std::vector<NodeId> empty_;

  /// Freeze bookkeeping (see Freeze()).
  uint64_t version_ = 0;
  uint64_t node_section_version_ = 0;
  std::vector<NodeId> dirty_out_;  // unsorted, may repeat
  std::vector<NodeId> dirty_in_;
  bool dirty_overflow_ = false;
  std::shared_ptr<const GraphSnapshot> frozen_;
};

}  // namespace gpmv

#endif  // GPMV_GRAPH_GRAPH_H_
