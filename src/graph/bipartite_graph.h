#ifndef RICD_GRAPH_BIPARTITE_GRAPH_H_
#define RICD_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
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

/// All storage of a BipartiteGraph as read-only spans — the unit of
/// exchange with external storage (the src/snapshot binary container).
/// Freeze() produces one over a live graph; AdoptExternal() builds a graph
/// whose accessors alias these spans (e.g. an mmap'd snapshot file).
///
/// The lookup spans hold dense ids ordered by ascending external id; the
/// snapshot format stores and validates them. Freeze() leaves them empty on
/// hash-backed graphs (GraphBuilder::ArgsortByExternalId materializes them
/// for writers); adopted graphs look ids up through a lazy FlatIdMap.
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
  std::span<const VertexId> user_lookup_sorted;    // num_users (may be empty)
  std::span<const VertexId> item_lookup_sorted;    // num_items (may be empty)
  uint64_t total_clicks = 0;
};

/// Immutable weighted bipartite click graph in dual-CSR form: adjacency is
/// materialized from both sides (user -> items and item -> users), each
/// sorted by neighbor id so set intersections run in linear time. Edge
/// weights are click counts.
///
/// Construction goes through GraphBuilder, which compacts arbitrary external
/// 64-bit user/item ids into dense ids — or through AdoptExternal, which
/// aliases storage owned elsewhere (a heap buffer or an mmap'd snapshot)
/// without copying it.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  uint32_t num_users() const { return static_cast<uint32_t>(uoffs().size()) - 1; }
  uint32_t num_items() const { return static_cast<uint32_t>(ioffs().size()) - 1; }
  uint32_t num_vertices(Side side) const {
    return side == Side::kUser ? num_users() : num_items();
  }
  uint64_t num_edges() const { return uadj().size(); }
  uint64_t total_clicks() const { return total_clicks_; }

  /// Sorted neighbor ids of user `u` (item ids).
  std::span<const VertexId> UserNeighbors(VertexId u) const {
    const auto offsets = uoffs();
    return uadj().subspan(offsets[u], offsets[u + 1] - offsets[u]);
  }

  /// Click weights aligned with UserNeighbors(u).
  std::span<const table::ClickCount> UserEdgeClicks(VertexId u) const {
    const auto offsets = uoffs();
    return uclk().subspan(offsets[u], offsets[u + 1] - offsets[u]);
  }

  /// Sorted neighbor ids of item `v` (user ids).
  std::span<const VertexId> ItemNeighbors(VertexId v) const {
    const auto offsets = ioffs();
    return iadj().subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }

  /// Click weights aligned with ItemNeighbors(v).
  std::span<const table::ClickCount> ItemEdgeClicks(VertexId v) const {
    const auto offsets = ioffs();
    return iclk().subspan(offsets[v], offsets[v + 1] - offsets[v]);
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
  uint64_t UserTotalClicks(VertexId u) const { return utot()[u]; }

  /// Total clicks incident to item `v` (the paper's per-item Total_click).
  uint64_t ItemTotalClicks(VertexId v) const { return itot()[v]; }

  /// Click count on edge (u, v); 0 if absent. O(log degree(u)).
  table::ClickCount EdgeWeight(VertexId u, VertexId v) const;

  /// True if user `u` has clicked item `v`.
  bool HasEdge(VertexId u, VertexId v) const { return EdgeWeight(u, v) > 0; }

  /// External (table-level) id of user `u`.
  table::UserId ExternalUserId(VertexId u) const { return uids()[u]; }

  /// External (table-level) id of item `v`.
  table::ItemId ExternalItemId(VertexId v) const { return iids()[v]; }

  /// Dense id of an external user id; returns false if unknown. O(1) on
  /// built graphs (hash map) and on adopted graphs (a flat open-addressing
  /// map built lazily on first lookup).
  bool LookupUser(table::UserId external, VertexId* out) const;

  /// Dense id of an external item id; returns false if unknown.
  bool LookupItem(table::ItemId external, VertexId* out) const;

  /// Raw CSR offset arrays (size num_users()+1 / num_items()+1). Exposed so
  /// the check library can verify offset monotonicity and terminal edge
  /// counts without friend access; offsets are the source of truth the span
  /// accessors above are derived from.
  std::span<const uint64_t> UserOffsets() const { return uoffs(); }
  std::span<const uint64_t> ItemOffsets() const { return ioffs(); }

  /// Freezes the graph for external storage: read-only spans over every
  /// array, valid while this graph (and, for adopted graphs, its retained
  /// backing store) is alive. The snapshot writer serializes exactly these.
  GraphSections Freeze() const;

  /// Builds a graph whose storage aliases `sections` without copying.
  /// `retention` keeps the backing memory (heap buffer, mmap handle) alive
  /// for the graph's lifetime, including through copies and moves. The
  /// caller is responsible for having validated the sections (the snapshot
  /// loader runs check::ValidateSnapshotHeader + checksum first). Lookups
  /// and all accessors behave identically to a built graph.
  static BipartiteGraph AdoptExternal(const GraphSections& sections,
                                      std::shared_ptr<const void> retention);

  /// True when storage is adopted external memory rather than owned vectors.
  bool is_external() const { return external_; }

 private:
  friend class GraphBuilder;
  /// Test-only backdoor (tests/graph_test_peer.h) used to corrupt a
  /// well-formed graph and prove each validator rejects it.
  friend struct GraphTestPeer;

  // Accessor plumbing: every read goes through one of these, which pick
  // the owned vectors or the adopted external spans. The `external_` branch
  // is invariant per graph, so it predicts perfectly in pruning loops.
  std::span<const uint64_t> uoffs() const {
    return external_ ? ext_.user_offsets
                     : std::span<const uint64_t>(user_offsets_);
  }
  std::span<const uint64_t> ioffs() const {
    return external_ ? ext_.item_offsets
                     : std::span<const uint64_t>(item_offsets_);
  }
  std::span<const VertexId> uadj() const {
    return external_ ? ext_.user_adj : std::span<const VertexId>(user_adj_);
  }
  std::span<const VertexId> iadj() const {
    return external_ ? ext_.item_adj : std::span<const VertexId>(item_adj_);
  }
  std::span<const table::ClickCount> uclk() const {
    return external_ ? ext_.user_clicks
                     : std::span<const table::ClickCount>(user_clicks_);
  }
  std::span<const table::ClickCount> iclk() const {
    return external_ ? ext_.item_clicks
                     : std::span<const table::ClickCount>(item_clicks_);
  }
  std::span<const uint64_t> utot() const {
    return external_ ? ext_.user_total_clicks
                     : std::span<const uint64_t>(user_total_clicks_);
  }
  std::span<const uint64_t> itot() const {
    return external_ ? ext_.item_total_clicks
                     : std::span<const uint64_t>(item_total_clicks_);
  }
  std::span<const table::UserId> uids() const {
    return external_ ? ext_.user_ids
                     : std::span<const table::UserId>(user_ids_);
  }
  std::span<const table::ItemId> iids() const {
    return external_ ? ext_.item_ids
                     : std::span<const table::ItemId>(item_ids_);
  }

  // Owned storage (built graphs). Empty when external_.
  std::vector<uint64_t> user_offsets_{0};
  std::vector<VertexId> user_adj_;
  std::vector<table::ClickCount> user_clicks_;
  std::vector<uint64_t> item_offsets_{0};
  std::vector<VertexId> item_adj_;
  std::vector<table::ClickCount> item_clicks_;
  std::vector<uint64_t> user_total_clicks_;
  std::vector<uint64_t> item_total_clicks_;
  std::vector<table::UserId> user_ids_;
  std::vector<table::ItemId> item_ids_;
  std::unordered_map<table::UserId, VertexId> user_lookup_;
  std::unordered_map<table::ItemId, VertexId> item_lookup_;
  uint64_t total_clicks_ = 0;

  // Adopted storage. `retention_` keeps the backing memory alive; copies of
  // the graph share it, so adopted graphs copy in O(1).
  bool external_ = false;
  GraphSections ext_;
  std::shared_ptr<const void> retention_;

  // Lazily built flat id maps for adopted graphs (built graphs keep their
  // hash maps). Shared across copies like the retention handle; call_once
  // makes the first concurrent lookups race-free. Null on built graphs.
  struct IdLookupState {
    std::once_flag once;
    FlatIdMap users;
    FlatIdMap items;
  };
  std::shared_ptr<IdLookupState> flat_lookup_;

  /// The adopted graph's flat maps, built on first use.
  const IdLookupState& FlatLookup() const;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_BIPARTITE_GRAPH_H_
