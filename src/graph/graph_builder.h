#ifndef RICD_GRAPH_GRAPH_BUILDER_H_
#define RICD_GRAPH_GRAPH_BUILDER_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "graph/bipartite_graph.h"
#include "table/click_table.h"

namespace ricd::graph {

/// Builds dual-CSR BipartiteGraphs from click tables. Duplicate (user, item)
/// rows in the input are merged by summing clicks. This is the
/// TableToBiGraph step of the paper's Algorithm 2.
class GraphBuilder {
 public:
  /// Builds a graph over all rows of `table`. Rows with zero clicks are
  /// rejected (InvalidArgument): a zero-weight edge is meaningless in a
  /// click graph and would distort degree-based pruning.
  static Result<BipartiteGraph> FromTable(const table::ClickTable& table);

  /// Freeze-side companion to BipartiteGraph::AdoptExternal: the dense ids
  /// [0, ids.size()) permuted into ascending external-id order: the sorted
  /// id table a snapshot stores next to the id arrays. External ids
  /// produced by FromTable are unique, so the order is total.
  static std::vector<VertexId> ArgsortByExternalId(
      std::span<const int64_t> ids);
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_GRAPH_BUILDER_H_
