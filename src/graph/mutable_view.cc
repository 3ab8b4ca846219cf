#include "graph/mutable_view.h"

#include <atomic>

#include "common/logging.h"

namespace ricd::graph {

MutableView::MutableView(const BipartiteGraph& graph) : graph_(&graph) {
  Reset();
}

void MutableView::Reset() {
  const uint32_t nu = graph_->num_users();
  const uint32_t ni = graph_->num_items();
  user_active_.assign(nu, 1);
  item_active_.assign(ni, 1);
  user_degree_.resize(nu);
  item_degree_.resize(ni);
  for (uint32_t u = 0; u < nu; ++u) user_degree_[u] = graph_->Degree(Side::kUser, u);
  for (uint32_t v = 0; v < ni; ++v) item_degree_[v] = graph_->Degree(Side::kItem, v);
  num_active_users_ = nu;
  num_active_items_ = ni;
  certificates_ = {};
}

void MutableView::Remove(Side side, VertexId v) {
  // Per-element degree underflow checks are debug-only: Remove sits inside
  // every pruning cascade's inner loop, and an underflow here is exactly
  // the incremental-maintenance bug ValidateMutableView catches in gated
  // builds.
  if (side == Side::kUser) {
    RICD_DCHECK_LT(v, user_active_.size());
    if (!user_active_[v]) return;
    user_active_[v] = 0;
    --num_active_users_;
    for (const VertexId w : graph_->UserNeighbors(v)) {
      if (item_active_[w]) {
        RICD_DCHECK_GT(item_degree_[w], 0u);
        --item_degree_[w];
      }
    }
  } else {
    RICD_DCHECK_LT(v, item_active_.size());
    if (!item_active_[v]) return;
    item_active_[v] = 0;
    --num_active_items_;
    for (const VertexId w : graph_->ItemNeighbors(v)) {
      if (user_active_[w]) {
        RICD_DCHECK_GT(user_degree_[w], 0u);
        --user_degree_[w];
      }
    }
  }
}

void MutableView::DeactivateBatch(Side side, std::span<const VertexId> batch) {
  auto& active = side == Side::kUser ? user_active_ : item_active_;
  uint32_t& num_active =
      side == Side::kUser ? num_active_users_ : num_active_items_;
  for (const VertexId v : batch) {
    RICD_DCHECK_LT(v, active.size());
    RICD_DCHECK(active[v] != 0);
    active[v] = 0;
  }
  RICD_DCHECK_GE(num_active, batch.size());
  num_active -= static_cast<uint32_t>(batch.size());
}

uint32_t MutableView::DecrementDegree(Side side, VertexId v) {
  auto& degree = side == Side::kUser ? user_degree_ : item_degree_;
  RICD_DCHECK_LT(v, degree.size());
  const uint32_t old = degree[v];
  RICD_DCHECK_GT(old, 0u);
  degree[v] = old - 1;
  return old;
}

uint32_t MutableView::DecrementDegreeAtomic(Side side, VertexId v) {
  auto& degree = side == Side::kUser ? user_degree_ : item_degree_;
  RICD_DCHECK_LT(v, degree.size());
  // fetch_sub returns the pre-decrement value; the unique min -> min-1
  // crossing is how the parallel CorePruning claims a vertex for the next
  // frontier exactly once.
  return std::atomic_ref<uint32_t>(degree[v]).fetch_sub(
      1, std::memory_order_relaxed);  // order: per-vertex counter; the unique min crossing is the only signal
}

std::vector<VertexId> MutableView::ActiveNeighbors(Side side, VertexId v) const {
  std::vector<VertexId> out;
  const auto neighbors = graph_->Neighbors(side, v);
  out.reserve(neighbors.size());
  const auto& other_active = side == Side::kUser ? item_active_ : user_active_;
  for (const VertexId w : neighbors) {
    if (other_active[w]) out.push_back(w);
  }
  return out;
}

std::vector<VertexId> MutableView::ActiveVertices(Side side) const {
  std::vector<VertexId> out;
  const auto& active = side == Side::kUser ? user_active_ : item_active_;
  out.reserve(NumActive(side));
  for (VertexId v = 0; v < active.size(); ++v) {
    if (active[v]) out.push_back(v);
  }
  return out;
}

}  // namespace ricd::graph
