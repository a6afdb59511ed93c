#include "graph/graph.h"

#include <algorithm>
#include <atomic>

#include "graph/snapshot.h"

namespace gpmv {

NodeId Graph::AddNode(const std::vector<std::string>& labels,
                      AttributeSet attrs) {
  ++version_;
  ++node_section_version_;
  NodeId id = static_cast<NodeId>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  OwnAttrs().push_back(std::move(attrs));
  std::vector<LabelId> lids;
  lids.reserve(labels.size());
  for (const std::string& name : labels) {
    LabelId lid = InternLabel(name);
    if (std::find(lids.begin(), lids.end(), lid) == lids.end()) {
      lids.push_back(lid);
      label_index_[lid].push_back(id);
    }
  }
  std::sort(lids.begin(), lids.end());
  node_labels_.push_back(std::move(lids));
  return id;
}

NodeId Graph::AddNode(const std::string& label, AttributeSet attrs) {
  return AddNode(std::vector<std::string>{label}, std::move(attrs));
}

std::vector<AttributeSet>& Graph::OwnAttrs() {
  if (node_attrs_ == nullptr) {  // moved-from graph
    node_attrs_ = std::make_shared<std::vector<AttributeSet>>();
  } else if (node_attrs_.use_count() > 1) {
    node_attrs_ = std::make_shared<std::vector<AttributeSet>>(*node_attrs_);
  } else {
    // Sole owner: order this write after the reads of any owner whose
    // release brought the count down to one.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *node_attrs_;
}

namespace {
bool SortedInsert(std::vector<NodeId>* vec, NodeId v) {
  auto it = std::lower_bound(vec->begin(), vec->end(), v);
  if (it != vec->end() && *it == v) return false;
  vec->insert(it, v);
  return true;
}

bool SortedErase(std::vector<NodeId>* vec, NodeId v) {
  auto it = std::lower_bound(vec->begin(), vec->end(), v);
  if (it == vec->end() || *it != v) return false;
  vec->erase(it);
  return true;
}

bool SortedContains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}
}  // namespace

Status Graph::AddEdge(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!SortedInsert(&out_[u], v)) {
    return Status::AlreadyExists("duplicate edge");
  }
  SortedInsert(&in_[v], u);
  ++num_edges_;
  MarkEdgeDirty(u, v);
  return Status::OK();
}

bool Graph::AddEdgeIfAbsent(NodeId u, NodeId v) {
  GPMV_DCHECK(u < num_nodes() && v < num_nodes());
  if (!SortedInsert(&out_[u], v)) return false;
  SortedInsert(&in_[v], u);
  ++num_edges_;
  MarkEdgeDirty(u, v);
  return true;
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!SortedErase(&out_[u], v)) {
    return Status::NotFound("edge not present");
  }
  SortedErase(&in_[v], u);
  --num_edges_;
  MarkEdgeDirty(u, v);
  return Status::OK();
}

void Graph::MarkEdgeDirty(NodeId out_node, NodeId in_node) {
  ++version_;
  if (dirty_overflow_) return;
  if (dirty_out_.size() >= kMaxDirtyRows || dirty_in_.size() >= kMaxDirtyRows) {
    dirty_overflow_ = true;
    dirty_out_.clear();
    dirty_in_.clear();
    return;
  }
  dirty_out_.push_back(out_node);
  dirty_in_.push_back(in_node);
}

std::shared_ptr<const GraphSnapshot> Graph::Freeze() {
  if (frozen_ != nullptr && frozen_->version() == version_) return frozen_;
  const bool node_section_reusable =
      frozen_ != nullptr && !dirty_overflow_ &&
      frozen_->node_section_version() == node_section_version_ &&
      frozen_->num_nodes() == num_nodes();
  if (node_section_reusable) {
    auto canonicalize = [](std::vector<NodeId>* dirty) {
      std::sort(dirty->begin(), dirty->end());
      dirty->erase(std::unique(dirty->begin(), dirty->end()), dirty->end());
    };
    canonicalize(&dirty_out_);
    canonicalize(&dirty_in_);
    frozen_ = GraphSnapshot::Rebuild(*this, version_, *frozen_, dirty_out_,
                                     dirty_in_);
  } else {
    frozen_ = GraphSnapshot::Build(*this, version_);
  }
  dirty_out_.clear();
  dirty_in_.clear();
  dirty_overflow_ = false;
  return frozen_;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  return SortedContains(out_[u], v);
}

bool Graph::HasLabel(NodeId v, LabelId label) const {
  const auto& ls = node_labels_[v];
  return std::binary_search(ls.begin(), ls.end(), label);
}

LabelId Graph::InternLabel(const std::string& name) {
  auto [it, inserted] = label_ids_.try_emplace(
      name, static_cast<LabelId>(label_names_.size()));
  if (inserted) {
    label_names_.push_back(name);
    label_index_.emplace_back();
  }
  return it->second;
}

LabelId Graph::FindLabel(const std::string& name) const {
  auto it = label_ids_.find(name);
  return it == label_ids_.end() ? kInvalidLabel : it->second;
}

const std::vector<NodeId>& Graph::NodesWithLabel(LabelId label) const {
  if (label >= label_index_.size()) return empty_;
  return label_index_[label];
}

std::string Graph::DescribeNode(NodeId v) const {
  std::string out = std::to_string(v);
  if (!node_labels_[v].empty()) {
    out += "(" + label_names_[node_labels_[v][0]];
    for (size_t i = 1; i < node_labels_[v].size(); ++i) {
      out += "," + label_names_[node_labels_[v][i]];
    }
    out += ")";
  }
  return out;
}

}  // namespace gpmv
