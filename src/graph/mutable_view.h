#ifndef RICD_GRAPH_MUTABLE_VIEW_H_
#define RICD_GRAPH_MUTABLE_VIEW_H_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ricd::graph {

/// Lemma-2 witness certificates that one SquarePruning pass of a side leaves
/// for the next pass of the same side (DESIGN.md §9.2): every survivor's
/// active degree at that pass and the `per_vertex` same-side vertices that
/// shared at least `common_needed` of its active counterparts then. They
/// stay true while the view only deletes: an unchanged active degree means
/// an unchanged active neighbour set, so each witness that is still active
/// still shares `common_needed` counterparts with the vertex.
struct WitnessCertificates {
  uint32_t common_needed = 0;  // ceil(alpha * k) the witnesses reached
  uint32_t per_vertex = 0;     // witnesses per vertex (k1 users, k2 items)
  std::vector<VertexId> vertices;   // ascending original ids
  std::vector<uint32_t> degrees;    // active degree when certified
  std::vector<VertexId> witnesses;  // per_vertex original ids per vertex

  std::span<const VertexId> WitnessesOf(size_t i) const {
    return std::span<const VertexId>(witnesses)
        .subspan(i * per_vertex, per_vertex);
  }
};

/// A deletion-only overlay on an immutable BipartiteGraph: vertices can be
/// deactivated (together with their incident edges) and per-vertex active
/// degrees are maintained incrementally. Pruning passes (CorePruning,
/// SquarePruning, FRAUDAR peeling) all operate on this view instead of
/// rebuilding CSR structures after every removal.
class MutableView {
 public:
  explicit MutableView(const BipartiteGraph& graph);

  const BipartiteGraph& graph() const { return *graph_; }

  bool IsActive(Side side, VertexId v) const {
    return side == Side::kUser ? user_active_[v] : item_active_[v];
  }

  /// Current degree counting only active counterparts.
  uint32_t ActiveDegree(Side side, VertexId v) const {
    return side == Side::kUser ? user_degree_[v] : item_degree_[v];
  }

  /// Deactivates `v`, decrementing the active degree of each of its active
  /// neighbors. No-op if already inactive.
  void Remove(Side side, VertexId v);

  /// Level-synchronous batch removal, phase 1 of 2: marks every vertex in
  /// `batch` inactive and fixes the active counter WITHOUT touching
  /// neighbor degrees. The caller then runs phase 2 — decrementing the
  /// degrees of the batch's still-active neighbors via DecrementDegree /
  /// DecrementDegreeAtomic — before reading any degree. Vertices must be
  /// currently active and listed at most once. Deactivating the whole level
  /// first makes intra-level edges behave identically to any sequential
  /// removal order (degrees of inactive vertices are never observed).
  void DeactivateBatch(Side side, std::span<const VertexId> batch);

  /// Decrements the cached active degree of `v`, returning the
  /// pre-decrement value. Batch phase 2 helper for the sequential path.
  uint32_t DecrementDegree(Side side, VertexId v);

  /// Atomic variant of DecrementDegree for concurrent batch phase 2 (pool
  /// workers decrementing shared neighbors). Degrees must not be read
  /// non-atomically until the parallel phase has joined.
  uint32_t DecrementDegreeAtomic(Side side, VertexId v);

  /// Number of still-active vertices on `side`.
  uint32_t NumActive(Side side) const {
    return side == Side::kUser ? num_active_users_ : num_active_items_;
  }

  /// Active neighbors of `v`, materialized into a sorted vector.
  std::vector<VertexId> ActiveNeighbors(Side side, VertexId v) const;

  /// All active vertex ids on `side`, ascending.
  std::vector<VertexId> ActiveVertices(Side side) const;

  /// The certificates the last SquarePruning pass of `side` left; empty
  /// until one runs and after Reset().
  const WitnessCertificates& Certificates(Side side) const {
    return certificates_[side == Side::kUser ? 0 : 1];
  }

  /// Replaces `side`'s certificates. Only SquarePruning (and tests) call it.
  void SetCertificates(Side side, WitnessCertificates certificates) {
    certificates_[side == Side::kUser ? 0 : 1] = std::move(certificates);
  }

  /// Restores every vertex to active, resets degrees and drops the witness
  /// certificates (a reactivated neighbour voids the deletion-only premise
  /// they rest on).
  void Reset();

 private:
  /// Test-only backdoor (tests/graph_test_peer.h); see BipartiteGraph.
  friend struct GraphTestPeer;

  const BipartiteGraph* graph_;
  std::vector<uint8_t> user_active_;
  std::vector<uint8_t> item_active_;
  std::vector<uint32_t> user_degree_;
  std::vector<uint32_t> item_degree_;
  uint32_t num_active_users_ = 0;
  uint32_t num_active_items_ = 0;
  std::array<WitnessCertificates, 2> certificates_;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_MUTABLE_VIEW_H_
