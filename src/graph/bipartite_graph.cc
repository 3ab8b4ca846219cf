#include "graph/bipartite_graph.h"

#include <algorithm>
#include <utility>

namespace ricd::graph {

GraphSections GraphArrays::Sections() const {
  GraphSections s;
  s.user_offsets = user_offsets;
  s.item_offsets = item_offsets;
  s.user_adj = user_adj;
  s.item_adj = item_adj;
  s.user_clicks = user_clicks;
  s.item_clicks = item_clicks;
  s.user_total_clicks = user_total_clicks;
  s.item_total_clicks = item_total_clicks;
  s.user_ids = user_ids;
  s.item_ids = item_ids;
  s.total_clicks = total_clicks;
  return s;
}

BipartiteGraph::BipartiteGraph()
    : flat_lookup_(std::make_shared<IdLookupState>()) {
  static constexpr uint64_t kNoEdges[] = {0};
  sections_.user_offsets = kNoEdges;
  sections_.item_offsets = kNoEdges;
}

table::ClickCount BipartiteGraph::EdgeWeight(VertexId u, VertexId v) const {
  const auto neighbors = UserNeighbors(u);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), v);
  if (it == neighbors.end() || *it != v) return 0;
  const size_t idx = static_cast<size_t>(it - neighbors.begin());
  return UserEdgeClicks(u)[idx];
}

const BipartiteGraph::IdLookupState& BipartiteGraph::FlatLookup() const {
  IdLookupState& state = *flat_lookup_;
  std::call_once(state.once, [&] {
    state.users = FlatIdMap(sections_.user_ids);
    state.items = FlatIdMap(sections_.item_ids);
  });
  return state;
}

bool BipartiteGraph::LookupUser(table::UserId external, VertexId* out) const {
  return FlatLookup().users.Lookup(external, out);
}

bool BipartiteGraph::LookupItem(table::ItemId external, VertexId* out) const {
  return FlatLookup().items.Lookup(external, out);
}

BipartiteGraph BipartiteGraph::FromArrays(GraphArrays arrays) {
  auto store = std::make_shared<const GraphArrays>(std::move(arrays));
  const GraphSections sections = store->Sections();
  return AdoptExternal(sections, std::move(store));
}

BipartiteGraph BipartiteGraph::AdoptExternal(
    const GraphSections& sections, std::shared_ptr<const void> retention) {
  BipartiteGraph g;
  g.sections_ = sections;
  g.retention_ = std::move(retention);
  return g;
}

}  // namespace ricd::graph
