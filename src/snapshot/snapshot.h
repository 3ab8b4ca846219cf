#ifndef RICD_SNAPSHOT_SNAPSHOT_H_
#define RICD_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "gen/label_set.h"
#include "graph/bipartite_graph.h"

namespace ricd::snapshot {

/// Binary graph snapshots: a versioned little-endian container (see
/// format.h) that (re)materializes a built BipartiteGraph in milliseconds
/// instead of re-parsing click logs and rebuilding CSR — the artifact-reuse
/// layer under `ricd_tool snapshot`, the `--snapshot` pipeline flags and
/// `bench_snapshot`. One load path: GraphView::Map(path) mmaps the file
/// read-only and the graph's section pointers alias the mapping (pages
/// fault in on demand); FromImage adopts an image already in memory.
///
/// Both run check::ValidateSnapshotHeader and re-verify the whole-file
/// checksum before any section pointer is formed, so corrupt or truncated
/// files yield a clean error Status, never UB. Saves and loads
/// record `snapshot.save` / `snapshot.load` spans plus byte counters in
/// the global metrics registry.

/// Decoded header facts of a loaded snapshot (GraphView::info()), as
/// `ricd_tool snapshot info` prints them.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t num_users = 0;
  uint64_t num_items = 0;
  uint64_t num_edges = 0;
  uint64_t total_clicks = 0;
  uint64_t file_bytes = 0;
  uint64_t checksum = 0;
  bool has_labels = false;
  uint64_t label_users = 0;
  uint64_t label_items = 0;
};

/// Serializes `graph` (plus optional ground-truth labels) into a complete
/// snapshot image, checksummed and ready to write. Exposed separately from
/// SaveSnapshot so tests can corrupt images deterministically in memory.
std::vector<uint8_t> SerializeSnapshot(const graph::BipartiteGraph& graph,
                                       const gen::LabelSet* labels = nullptr);

/// Writes a snapshot of `graph` to `path` (truncating).
Status SaveSnapshot(const graph::BipartiteGraph& graph,
                    const std::string& path,
                    const gen::LabelSet* labels = nullptr);

/// A loaded snapshot: a BipartiteGraph whose storage aliases the snapshot
/// image, plus the optional label sections. The graph
/// itself retains the backing store, so TakeGraph() — and any copy of the
/// graph — outlives the view.
class GraphView {
 public:
  /// Zero-copy load: mmaps the file read-only; section pointers alias the
  /// mapping, so no payload bytes are copied.
  static Result<GraphView> Map(const std::string& path);

  /// Validates and adopts an in-memory snapshot image. `retention` must
  /// keep `data` alive; Map is a wrapper over this.
  static Result<GraphView> FromImage(std::span<const uint8_t> data,
                                     std::shared_ptr<const void> retention);

  const graph::BipartiteGraph& graph() const { return graph_; }
  const SnapshotInfo& info() const { return info_; }
  bool has_labels() const { return info_.has_labels; }

  /// Raw label sections (sorted external ids; empty without labels).
  std::span<const int64_t> label_user_ids() const { return label_users_; }
  std::span<const int64_t> label_item_ids() const { return label_items_; }

  /// Materializes the label sections as a LabelSet.
  gen::LabelSet Labels() const;

  /// Moves the graph out; it keeps the backing store alive on its own.
  graph::BipartiteGraph TakeGraph() && { return std::move(graph_); }

 private:
  GraphView() = default;

  graph::BipartiteGraph graph_;
  SnapshotInfo info_;
  std::span<const int64_t> label_users_;
  std::span<const int64_t> label_items_;
  std::shared_ptr<const void> retention_;
};

}  // namespace ricd::snapshot

#endif  // RICD_SNAPSHOT_SNAPSHOT_H_
