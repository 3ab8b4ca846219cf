#include "baselines/naive.h"

#include <vector>

#include "graph/hot_items.h"

namespace ricd::baselines {

Result<DetectionResult> NaiveAlgorithm::Detect(const graph::BipartiteGraph& g) {
  using graph::Side;
  using graph::VertexId;

  if (params_.t_risk_item < 0.0 || params_.t_risk_item > 1.0) {
    return Status::InvalidArgument("t_risk_item must be in [0, 1]");
  }

  const uint64_t t_hot =
      params_.t_hot > 0 ? params_.t_hot
                        : graph::DeriveHotThreshold(g, graph::kHotClickMass);
  const auto hot = graph::ComputeHotFlags(g, t_hot);

  // GETALPHA: per-user hot-item exposure (distinct hot items clicked).
  std::vector<uint32_t> hot_count(g.num_users(), 0);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    uint32_t count = 0;
    for (const VertexId v : g.UserNeighbors(u)) {
      if (hot[v]) ++count;
    }
    hot_count[u] = count;
  }

  // Item pass: flag new items whose audience is mostly hot-item clickers.
  graph::Group group;
  std::vector<uint8_t> item_flag(g.num_items(), 0);
  for (VertexId v = 0; v < g.num_items(); ++v) {
    if (hot[v]) continue;  // Hot items are never candidate targets.
    const auto audience = g.ItemNeighbors(v);
    if (audience.size() < params_.min_audience) continue;
    uint32_t suspicious = 0;
    for (const VertexId u : audience) {
      if (hot_count[u] >= params_.hot_items_needed) ++suspicious;
    }
    const double risk = static_cast<double>(suspicious) /
                        static_cast<double>(audience.size());
    if (risk > params_.t_risk_item) {
      item_flag[v] = 1;
      group.items.push_back(v);
    }
  }

  // Symmetric user pass over the abnormal item set.
  for (VertexId u = 0; u < g.num_users(); ++u) {
    uint32_t flagged_items = 0;
    for (const VertexId v : g.UserNeighbors(u)) {
      if (item_flag[v]) ++flagged_items;
    }
    if (flagged_items >= params_.t_risk_user) group.users.push_back(u);
  }

  DetectionResult result;
  if (!group.empty()) result.groups.push_back(std::move(group));
  return result;
}

}  // namespace ricd::baselines
