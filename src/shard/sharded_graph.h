#ifndef RICD_SHARD_SHARDED_GRAPH_H_
#define RICD_SHARD_SHARDED_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/worker_engine.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_builder.h"
#include "table/click_table.h"

namespace ricd::shard {

/// Sentinel for "this global vertex has no local id in this shard". Safe as
/// a sentinel because the 32-bit id bound check rejects tables whose dense
/// ids would reach 0xFFFFFFFF.
inline constexpr graph::VertexId kNoVertex = 0xFFFFFFFFu;

/// The *global* dense id space of a click table: the exact first-seen-order
/// id assignment GraphBuilder::FromTable performs in its pass 1, factored
/// out so a sharded build can agree bit for bit with the monolithic build
/// on what "user 17" means. Rejects zero-click rows and id overflow with
/// the builder's own error statuses.
struct GlobalIdSpace {
  std::vector<table::UserId> user_ids;  // global dense -> external
  std::vector<table::ItemId> item_ids;
  std::vector<graph::VertexId> row_user;  // per input row
  std::vector<graph::VertexId> row_item;
};

Result<GlobalIdSpace> AssignGlobalIds(const table::ClickTable& table);

/// One graph shard: the full CSR of the users hash-assigned to it (every
/// edge of a user lives in its home shard; the item side is therefore a
/// *partial* view of each item). The id maps stay resident across spills —
/// only the CSR (`graph`) is released and re-mapped on demand.
struct GraphShard {
  graph::BipartiteGraph graph;
  /// Shard-local dense id -> global dense id. Local ids are first-seen
  /// order within the shard's row subsequence.
  std::vector<graph::VertexId> user_global;
  std::vector<graph::VertexId> item_global;
  /// Global item id -> shard-local id (kNoVertex when the item has no edge
  /// in this shard). Sized num global items; lets the cross-shard pruning
  /// walk an item's edges without a hash lookup per edge.
  std::vector<graph::VertexId> item_local;
  /// Snapshot file backing this shard once Spill() ran; empty before.
  std::string spill_path;
  /// False while the CSR is released to disk.
  bool resident = true;
};

/// A click graph hash-partitioned by user across N shards, plus the global
/// id space gluing the shards together. Built by BuildShardedGraph;
/// consumed by the cross-shard pruning/extraction pipeline (core_fixpoint.h,
/// subgraph.h) and by ShardedRicd.
struct ShardedGraph {
  uint32_t num_shards = 1;

  // Global id space (identical to the monolithic builder's).
  std::vector<table::UserId> user_ids;
  std::vector<table::ItemId> item_ids;

  /// Global user id -> home shard / shard-local id.
  std::vector<uint32_t> user_shard;
  std::vector<graph::VertexId> user_local;

  /// Global per-item click totals (sums of the shards' partial totals —
  /// exact integers, so T_hot derivation matches the monolithic graph).
  std::vector<uint64_t> item_totals;
  uint64_t total_clicks = 0;
  uint64_t num_edges = 0;

  std::vector<GraphShard> shards;

  uint32_t num_users() const {
    return static_cast<uint32_t>(user_ids.size());
  }
  uint32_t num_items() const {
    return static_cast<uint32_t>(item_ids.size());
  }

  /// Writes every shard CSR to `<prefix>.shard<k>.snap` (the PR 3 snapshot
  /// container) plus a checksummed manifest at `<prefix>.shards.manifest`,
  /// then releases the in-memory CSRs. After a spill, passes over the
  /// shards go through EnsureLoaded/Release so only one shard's CSR needs
  /// to be resident at a time — the working-set story for graphs 10-100x
  /// the in-memory budget.
  Status Spill(const std::string& prefix);

  /// Re-maps shard `k` from its spill snapshot (zero-copy mmap) if it is
  /// not resident. No-op for resident shards.
  Status EnsureLoaded(uint32_t k);

  /// Drops shard `k`'s CSR if it has a spill file to come back from.
  void Release(uint32_t k);

  bool spilled() const {
    return !shards.empty() && !shards[0].spill_path.empty();
  }
};

/// Partitions `table` by user hash into `num_shards` sub-tables (row order
/// preserved) and builds the per-shard CSRs in parallel on `engine`.
/// num_shards == 1 produces a single shard whose graph is bit-identical to
/// GraphBuilder::FromTable's.
Result<ShardedGraph> BuildShardedGraph(
    const table::ClickTable& table, uint32_t num_shards,
    const engine::WorkerEngine& engine = engine::DefaultEngine());

/// Validates the spill manifest at `<prefix>.shards.manifest` against the
/// shard snapshot files (magic, shard count, per-file checksums). Returns
/// the shard count on success.
Result<uint32_t> VerifyShardManifest(const std::string& prefix);

}  // namespace ricd::shard

#endif  // RICD_SHARD_SHARDED_GRAPH_H_
