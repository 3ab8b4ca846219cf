#ifndef RICD_GRAPH_GRAPH_BUILDER_H_
#define RICD_GRAPH_GRAPH_BUILDER_H_

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
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_GRAPH_BUILDER_H_
