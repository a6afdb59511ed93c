#include "simulation/candidate_space.h"

#include <algorithm>

namespace gpmv {

void CandidateSpace::Reset(size_t num_pattern_nodes, size_t num_graph_nodes,
                           bool dense_inverse) {
  num_graph_nodes_ = num_graph_nodes;
  total_ranks_ = 0;
  nodes_.assign(num_pattern_nodes, {});
  if (dense_inverse) {
    inv_.assign(num_pattern_nodes,
                std::vector<uint32_t>(num_graph_nodes, kNoRank));
  } else {
    inv_.clear();
  }
}

void CandidateSpace::Assign(uint32_t u, std::vector<NodeId> candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  AssignPreranked(u, std::move(candidates));
}

void CandidateSpace::AssignPreranked(uint32_t u,
                                     std::vector<NodeId> candidates) {
  total_ranks_ -= nodes_[u].size();
  if (!inv_.empty()) {
    std::vector<uint32_t>& inv = inv_[u];
    for (NodeId v : nodes_[u]) inv[v] = kNoRank;  // drop a prior assignment
    for (uint32_t r = 0; r < candidates.size(); ++r) {
      GPMV_DCHECK(candidates[r] < num_graph_nodes_);
      inv[candidates[r]] = r;
    }
  }
  total_ranks_ += candidates.size();
  nodes_[u] = std::move(candidates);
}

}  // namespace gpmv
