#include "graph/bipartite_graph.h"

#include <algorithm>
#include <utility>

namespace ricd::graph {

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
    state.users = FlatIdMap(ext_.user_ids);
    state.items = FlatIdMap(ext_.item_ids);
  });
  return state;
}

bool BipartiteGraph::LookupUser(table::UserId external, VertexId* out) const {
  if (external_) return FlatLookup().users.Lookup(external, out);
  const auto it = user_lookup_.find(external);
  if (it == user_lookup_.end()) return false;
  *out = it->second;
  return true;
}

bool BipartiteGraph::LookupItem(table::ItemId external, VertexId* out) const {
  if (external_) return FlatLookup().items.Lookup(external, out);
  const auto it = item_lookup_.find(external);
  if (it == item_lookup_.end()) return false;
  *out = it->second;
  return true;
}

GraphSections BipartiteGraph::Freeze() const {
  if (external_) return ext_;
  GraphSections s;
  s.user_offsets = user_offsets_;
  s.item_offsets = item_offsets_;
  s.user_adj = user_adj_;
  s.item_adj = item_adj_;
  s.user_clicks = user_clicks_;
  s.item_clicks = item_clicks_;
  s.user_total_clicks = user_total_clicks_;
  s.item_total_clicks = item_total_clicks_;
  s.user_ids = user_ids_;
  s.item_ids = item_ids_;
  // lookup_sorted stays empty: built graphs answer lookups via the hash
  // maps; writers materialize the permutations with ArgsortByExternalId.
  s.total_clicks = total_clicks_;
  return s;
}

BipartiteGraph BipartiteGraph::AdoptExternal(
    const GraphSections& sections, std::shared_ptr<const void> retention) {
  BipartiteGraph g;
  g.user_offsets_.clear();  // drop the default {0} so owned storage is empty
  g.item_offsets_.clear();
  g.external_ = true;
  g.ext_ = sections;
  g.retention_ = std::move(retention);
  g.total_clicks_ = sections.total_clicks;
  g.flat_lookup_ = std::make_shared<IdLookupState>();
  return g;
}

}  // namespace ricd::graph
