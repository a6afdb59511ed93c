#include "graph/snapshot.h"

#include <algorithm>

namespace gpmv {

namespace {

/// Prefix-sums per-node sizes into a CSR offset array.
void OffsetsFromSizes(const std::vector<uint32_t>& sizes,
                      std::vector<uint32_t>* offsets) {
  offsets->resize(sizes.size() + 1);
  uint32_t total = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    (*offsets)[i] = total;
    total += sizes[i];
  }
  (*offsets)[sizes.size()] = total;
}

}  // namespace

std::shared_ptr<const GraphSnapshot::NodeSection>
GraphSnapshot::BuildNodeSection(const Graph& g) {
  auto section = std::make_shared<NodeSection>();
  const size_t n = g.num_nodes();

  std::vector<uint32_t> sizes(n);
  for (NodeId v = 0; v < n; ++v) {
    sizes[v] = static_cast<uint32_t>(g.labels(v).size());
  }
  OffsetsFromSizes(sizes, &section->label_offsets);
  section->label_flat.reserve(section->label_offsets.back());
  section->attrs = g.shared_attrs();
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<LabelId>& ls = g.labels(v);
    section->label_flat.insert(section->label_flat.end(), ls.begin(),
                               ls.end());
  }

  const size_t nl = g.num_labels();
  sizes.assign(nl, 0);
  section->label_names.reserve(nl);
  for (LabelId l = 0; l < nl; ++l) {
    sizes[l] = static_cast<uint32_t>(g.NodesWithLabel(l).size());
    section->label_names.push_back(g.LabelName(l));
    section->label_ids.emplace(g.LabelName(l), l);
  }
  OffsetsFromSizes(sizes, &section->index_offsets);
  section->index_flat.reserve(section->index_offsets.back());
  for (LabelId l = 0; l < nl; ++l) {
    const std::vector<NodeId>& vs = g.NodesWithLabel(l);
    section->index_flat.insert(section->index_flat.end(), vs.begin(),
                               vs.end());
  }
  section->node_version = g.node_section_version();
  return section;
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::Build(const Graph& g,
                                                          uint64_t version) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version_ = version;
  const size_t n = g.num_nodes();

  std::vector<uint32_t> sizes(n);
  for (NodeId v = 0; v < n; ++v) {
    sizes[v] = static_cast<uint32_t>(g.out_degree(v));
  }
  OffsetsFromSizes(sizes, &snap->out_offsets_);
  snap->out_targets_.reserve(snap->out_offsets_.back());
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& row = g.out_neighbors(v);
    snap->out_targets_.insert(snap->out_targets_.end(), row.begin(),
                              row.end());
  }

  for (NodeId v = 0; v < n; ++v) {
    sizes[v] = static_cast<uint32_t>(g.in_degree(v));
  }
  OffsetsFromSizes(sizes, &snap->in_offsets_);
  snap->in_sources_.reserve(snap->in_offsets_.back());
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& row = g.in_neighbors(v);
    snap->in_sources_.insert(snap->in_sources_.end(), row.begin(), row.end());
  }

  snap->nodes_ = BuildNodeSection(g);
  return snap;
}

namespace {

/// Rebuilds one CSR side, copying unchanged row spans from `prev_offsets` /
/// `prev_flat` wholesale and re-reading only the rows in sorted `dirty`.
template <typename RowFn>
void RebuildSide(size_t n, const std::vector<NodeId>& dirty, RowFn row_of,
                 const std::vector<uint32_t>& prev_offsets,
                 const std::vector<NodeId>& prev_flat,
                 std::vector<uint32_t>* offsets, std::vector<NodeId>* flat) {
  offsets->resize(n + 1);
  uint32_t total = 0;
  size_t d = 0;
  for (NodeId v = 0; v < n; ++v) {
    (*offsets)[v] = total;
    while (d < dirty.size() && dirty[d] < v) ++d;
    const bool is_dirty = d < dirty.size() && dirty[d] == v;
    total += is_dirty
                 ? static_cast<uint32_t>(row_of(v).size())
                 : prev_offsets[v + 1] - prev_offsets[v];
  }
  (*offsets)[n] = total;

  flat->resize(total);
  d = 0;
  NodeId span_start = 0;  // first node of the current clean span
  auto flush_clean = [&](NodeId end) {
    if (span_start >= end) return;
    std::copy(prev_flat.begin() + prev_offsets[span_start],
              prev_flat.begin() + prev_offsets[end],
              flat->begin() + (*offsets)[span_start]);
  };
  for (NodeId v : dirty) {
    if (v >= n) break;
    flush_clean(v);
    const auto& row = row_of(v);
    std::copy(row.begin(), row.end(), flat->begin() + (*offsets)[v]);
    span_start = v + 1;
  }
  flush_clean(static_cast<NodeId>(n));
}

}  // namespace

std::shared_ptr<const GraphSnapshot> GraphSnapshot::Rebuild(
    const Graph& g, uint64_t version, const GraphSnapshot& prev,
    const std::vector<NodeId>& out_dirty,
    const std::vector<NodeId>& in_dirty) {
  GPMV_DCHECK(g.num_nodes() == prev.num_nodes());
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version_ = version;
  const size_t n = g.num_nodes();
  RebuildSide(
      n, out_dirty, [&](NodeId v) -> const std::vector<NodeId>& {
        return g.out_neighbors(v);
      },
      prev.out_offsets_, prev.out_targets_, &snap->out_offsets_,
      &snap->out_targets_);
  RebuildSide(
      n, in_dirty, [&](NodeId v) -> const std::vector<NodeId>& {
        return g.in_neighbors(v);
      },
      prev.in_offsets_, prev.in_sources_, &snap->in_offsets_,
      &snap->in_sources_);
  snap->nodes_ = prev.nodes_;  // edge updates never touch the node section
  return snap;
}

bool GraphSnapshot::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  NodeSpan row = out_neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

bool GraphSnapshot::HasLabel(NodeId v, LabelId label) const {
  LabelSpan ls = labels(v);
  return std::binary_search(ls.begin(), ls.end(), label);
}

LabelId GraphSnapshot::FindLabel(const std::string& name) const {
  auto it = nodes_->label_ids.find(name);
  return it == nodes_->label_ids.end() ? kInvalidLabel : it->second;
}

NodeSpan GraphSnapshot::NodesWithLabel(LabelId label) const {
  const auto& n = *nodes_;
  if (label >= n.index_offsets.size() - 1) return {};
  return {n.index_flat.data() + n.index_offsets[label],
          n.index_flat.data() + n.index_offsets[label + 1]};
}

size_t GraphSnapshot::ApproxBytes() const {
  size_t bytes = (out_offsets_.size() + in_offsets_.size()) * sizeof(uint32_t);
  bytes += (out_targets_.size() + in_sources_.size()) * sizeof(NodeId);
  bytes += nodes_->label_offsets.size() * sizeof(uint32_t);
  bytes += nodes_->label_flat.size() * sizeof(LabelId);
  bytes += nodes_->index_offsets.size() * sizeof(uint32_t);
  bytes += nodes_->index_flat.size() * sizeof(NodeId);
  return bytes;
}

}  // namespace gpmv
