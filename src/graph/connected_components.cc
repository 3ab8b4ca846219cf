#include "graph/connected_components.h"

#include <limits>
#include <utility>

namespace ricd::graph {

std::vector<Group> ActiveConnectedComponents(const MutableView& view) {
  const BipartiteGraph& g = view.graph();
  const uint32_t nu = g.num_users();
  constexpr VertexId kNone = std::numeric_limits<VertexId>::max();

  // Union-find over the users, reading only active users' rows: an active
  // item joins the set of the first user that reaches it (its owner), and
  // each later user that reaches it merges into that set. A surviving hot
  // item's pruned users are never read. The smaller root always wins a
  // union, so every root is its set's smallest user.
  std::vector<VertexId> parent(nu, kNone);  // kNone: in no component
  std::vector<VertexId> owner(g.num_items(), kNone);
  const auto find = [&parent](VertexId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (VertexId u = 0; u < nu; ++u) {
    if (!view.IsActive(Side::kUser, u) ||
        view.ActiveDegree(Side::kUser, u) == 0) {
      continue;
    }
    parent[u] = u;
    for (const VertexId v : g.UserNeighbors(u)) {
      if (!view.IsActive(Side::kItem, v)) continue;
      if (owner[v] == kNone) {
        owner[v] = u;
        continue;
      }
      VertexId a = find(owner[v]);
      VertexId b = find(u);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      parent[b] = a;
    }
  }

  // Roots come up in ascending order, so groups are emitted by smallest
  // user, and ascending scans fill their member lists already sorted.
  std::vector<Group> groups;
  std::vector<uint32_t> group_of(nu);  // group index, set for roots
  for (VertexId u = 0; u < nu; ++u) {
    if (parent[u] == kNone) continue;
    const VertexId root = find(u);
    if (root == u) {
      group_of[u] = static_cast<uint32_t>(groups.size());
      groups.emplace_back();
    }
    groups[group_of[root]].users.push_back(u);
  }
  for (VertexId v = 0; v < g.num_items(); ++v) {
    if (owner[v] == kNone) continue;
    groups[group_of[find(owner[v])]].items.push_back(v);
  }
  return groups;
}

}  // namespace ricd::graph
