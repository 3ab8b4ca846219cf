#include "graph/hot_items.h"

#include <algorithm>
#include <functional>

namespace ricd::graph {

std::vector<uint8_t> ComputeHotFlags(const BipartiteGraph& graph, uint64_t t_hot) {
  std::vector<uint8_t> hot(graph.num_items(), 0);
  for (VertexId v = 0; v < graph.num_items(); ++v) {
    hot[v] = graph.ItemTotalClicks(v) >= t_hot ? 1 : 0;
  }
  return hot;
}

uint64_t DeriveHotThreshold(const BipartiteGraph& graph, double mass_fraction) {
  if (graph.num_items() == 0 || graph.total_clicks() == 0) return 0;
  std::vector<uint64_t> totals;
  totals.reserve(graph.num_items());
  for (VertexId v = 0; v < graph.num_items(); ++v) {
    totals.push_back(graph.ItemTotalClicks(v));
  }
  std::sort(totals.begin(), totals.end(), std::greater<uint64_t>());
  const double target =
      mass_fraction * static_cast<double>(graph.total_clicks());
  uint64_t acc = 0;
  for (uint64_t t : totals) {
    acc += t;
    if (static_cast<double>(acc) >= target) return t;
  }
  return totals.back();
}

}  // namespace ricd::graph
