#ifndef RICD_GRAPH_GRAPH_BUILDER_H_
#define RICD_GRAPH_GRAPH_BUILDER_H_

#include "common/result.h"
#include "graph/bipartite_graph.h"
#include "table/click_table.h"

namespace ricd::graph {

/// Builds dual-CSR BipartiteGraphs from click tables. This is the
/// TableToBiGraph step of the paper's Algorithm 2.
class GraphBuilder {
 public:
  /// Builds a graph over all rows of `table`. The arrays are a function of
  /// the rows alone:
  ///   - Dense ids are first-seen: user (item) d is the d-th distinct user
  ///     (item) in row order, and user_ids / item_ids list them so.
  ///     reduce2Hop breaks ties by dense id, so the order is part of the
  ///     result.
  ///   - Every user row lists its items ascending, and every item row its
  ///     users ascending, with no repeats.
  ///   - Duplicate (user, item) rows merge into one edge whose clicks are
  ///     their sum, saturating at the ClickCount maximum; the per-vertex
  ///     and graph totals sum the merged edges.
  /// Errors: a row with zero clicks is InvalidArgument naming the first such
  /// row (a zero-weight edge is meaningless in a click graph and would
  /// distort degree-based pruning); more distinct users or items than
  /// 32-bit dense ids can number (0xFFFFFFFF) is OutOfRange.
  static Result<BipartiteGraph> FromTable(const table::ClickTable& table);
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_GRAPH_BUILDER_H_
