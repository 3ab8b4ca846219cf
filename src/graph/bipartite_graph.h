#ifndef RICD_GRAPH_BIPARTITE_GRAPH_H_
#define RICD_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/id_lookup.h"
#include "table/click_record.h"

namespace ricd::graph {

/// Dense internal vertex id. Users and items live in separate id spaces,
/// each starting at 0.
using VertexId = uint32_t;

/// Which side of the bipartition a vertex id refers to.
enum class Side { kUser, kItem };

/// Returns the opposite side.
inline Side Other(Side s) { return s == Side::kUser ? Side::kItem : Side::kUser; }

/// All storage of a BipartiteGraph as read-only spans — what every accessor
/// reads, and the unit of exchange with external storage (the src/snapshot
/// binary container). Freeze() returns a graph's sections; AdoptExternal()
/// builds a graph over sections owned elsewhere (e.g. an mmap'd snapshot).
struct GraphSections {
  std::span<const uint64_t> user_offsets;  // num_users + 1
  std::span<const uint64_t> item_offsets;  // num_items + 1
  std::span<const VertexId> user_adj;      // num_edges
  std::span<const VertexId> item_adj;      // num_edges
  std::span<const table::ClickCount> user_clicks;  // num_edges
  std::span<const table::ClickCount> item_clicks;  // num_edges
  std::span<const uint64_t> user_total_clicks;     // num_users
  std::span<const uint64_t> item_total_clicks;     // num_items
  std::span<const table::UserId> user_ids;         // num_users
  std::span<const table::ItemId> item_ids;         // num_items
  uint64_t total_clicks = 0;
};

/// Heap backing store for a graph: one vector per section. GraphBuilder
/// fills one and hands it to BipartiteGraph::FromArrays. The offsets start
/// as {0}, so a default store describes the empty graph.
struct GraphArrays {
  std::vector<uint64_t> user_offsets{0};
  std::vector<uint64_t> item_offsets{0};
  std::vector<VertexId> user_adj;
  std::vector<VertexId> item_adj;
  std::vector<table::ClickCount> user_clicks;
  std::vector<table::ClickCount> item_clicks;
  std::vector<uint64_t> user_total_clicks;
  std::vector<uint64_t> item_total_clicks;
  std::vector<table::UserId> user_ids;
  std::vector<table::ItemId> item_ids;
  uint64_t total_clicks = 0;

  /// Read-only spans over every vector, valid while this store is alive.
  GraphSections Sections() const;
};

/// Immutable weighted bipartite click graph in dual-CSR form: adjacency is
/// materialized from both sides (user -> items and item -> users), each
/// sorted by neighbor id so set intersections run in linear time. Edge
/// weights are click counts.
///
/// A graph is a read-only view: one GraphSections plus a shared handle on
/// the store behind them — a GraphArrays built by GraphBuilder (which
/// compacts arbitrary external 64-bit user/item ids into dense ids) or a
/// snapshot image adopted through AdoptExternal. Copies share the store, so
/// copying a graph is O(1).
class BipartiteGraph {
 public:
  /// The empty graph: no users, items or edges, and every lookup misses.
  BipartiteGraph();

  uint32_t num_users() const {
    return static_cast<uint32_t>(sections_.user_offsets.size()) - 1;
  }
  uint32_t num_items() const {
    return static_cast<uint32_t>(sections_.item_offsets.size()) - 1;
  }
  uint32_t num_vertices(Side side) const {
    return side == Side::kUser ? num_users() : num_items();
  }
  uint64_t num_edges() const { return sections_.user_adj.size(); }
  uint64_t total_clicks() const { return sections_.total_clicks; }

  /// Sorted neighbor ids of user `u` (item ids).
  std::span<const VertexId> UserNeighbors(VertexId u) const {
    const auto offsets = sections_.user_offsets;
    return sections_.user_adj.subspan(offsets[u], offsets[u + 1] - offsets[u]);
  }

  /// Click weights aligned with UserNeighbors(u).
  std::span<const table::ClickCount> UserEdgeClicks(VertexId u) const {
    const auto offsets = sections_.user_offsets;
    return sections_.user_clicks.subspan(offsets[u],
                                         offsets[u + 1] - offsets[u]);
  }

  /// Sorted neighbor ids of item `v` (user ids).
  std::span<const VertexId> ItemNeighbors(VertexId v) const {
    const auto offsets = sections_.item_offsets;
    return sections_.item_adj.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }

  /// Click weights aligned with ItemNeighbors(v).
  std::span<const table::ClickCount> ItemEdgeClicks(VertexId v) const {
    const auto offsets = sections_.item_offsets;
    return sections_.item_clicks.subspan(offsets[v],
                                         offsets[v + 1] - offsets[v]);
  }

  /// Side-generic sorted neighbors of vertex `v` on `side`.
  std::span<const VertexId> Neighbors(Side side, VertexId v) const {
    return side == Side::kUser ? UserNeighbors(v) : ItemNeighbors(v);
  }

  /// Side-generic click weights aligned with Neighbors(side, v).
  std::span<const table::ClickCount> EdgeClicks(Side side, VertexId v) const {
    return side == Side::kUser ? UserEdgeClicks(v) : ItemEdgeClicks(v);
  }

  /// Number of distinct counterparts (unweighted degree).
  uint32_t Degree(Side side, VertexId v) const {
    return static_cast<uint32_t>(Neighbors(side, v).size());
  }

  /// Total clicks incident to user `u` (weighted degree).
  uint64_t UserTotalClicks(VertexId u) const {
    return sections_.user_total_clicks[u];
  }

  /// Total clicks incident to item `v` (the paper's per-item Total_click).
  uint64_t ItemTotalClicks(VertexId v) const {
    return sections_.item_total_clicks[v];
  }

  /// Click count on edge (u, v); 0 if absent. O(log degree(u)).
  table::ClickCount EdgeWeight(VertexId u, VertexId v) const;

  /// True if user `u` has clicked item `v`.
  bool HasEdge(VertexId u, VertexId v) const { return EdgeWeight(u, v) > 0; }

  /// External (table-level) id of user `u`.
  table::UserId ExternalUserId(VertexId u) const {
    return sections_.user_ids[u];
  }

  /// External (table-level) id of item `v`.
  table::ItemId ExternalItemId(VertexId v) const {
    return sections_.item_ids[v];
  }

  /// Dense id of an external user id; returns false if unknown. O(1): a
  /// flat open-addressing map over the id section, built lazily on the
  /// first lookup and shared by every copy of the graph.
  bool LookupUser(table::UserId external, VertexId* out) const;

  /// Dense id of an external item id; returns false if unknown.
  bool LookupItem(table::ItemId external, VertexId* out) const;

  /// Raw CSR offset arrays (size num_users()+1 / num_items()+1). Exposed so
  /// the check library can verify offset monotonicity and terminal edge
  /// counts; offsets are the source of truth the span accessors above are
  /// derived from.
  std::span<const uint64_t> UserOffsets() const {
    return sections_.user_offsets;
  }
  std::span<const uint64_t> ItemOffsets() const {
    return sections_.item_offsets;
  }

  /// The graph's sections: read-only spans over every array, valid while
  /// this graph (or any copy of it) is alive. The snapshot writer
  /// serializes exactly these.
  GraphSections Freeze() const { return sections_; }

  /// Builds a graph that owns `arrays`: they move into a shared store and
  /// the graph adopts their spans.
  static BipartiteGraph FromArrays(GraphArrays arrays);

  /// Builds a graph whose storage aliases `sections` without copying.
  /// `retention` keeps the backing memory (heap buffer, mmap handle) alive
  /// for the graph's lifetime, including through copies and moves. The
  /// caller is responsible for having validated the sections (the snapshot
  /// loader runs check::ValidateSnapshotHeader + checksum first).
  static BipartiteGraph AdoptExternal(const GraphSections& sections,
                                      std::shared_ptr<const void> retention);

 private:
  GraphSections sections_;
  // Keeps the memory behind `sections_` alive; copies of the graph share it.
  std::shared_ptr<const void> retention_;

  // Lazily built flat id maps. Shared across copies like the retention
  // handle; call_once makes the first concurrent lookups race-free.
  struct IdLookupState {
    std::once_flag once;
    FlatIdMap users;
    FlatIdMap items;
  };
  std::shared_ptr<IdLookupState> flat_lookup_;

  /// The flat id maps, built on first use.
  const IdLookupState& FlatLookup() const;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_BIPARTITE_GRAPH_H_
