#ifndef RICD_GRAPH_HOT_ITEMS_H_
#define RICD_GRAPH_HOT_ITEMS_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ricd::graph {

/// Per-item hot flags: item v is hot iff its total clicks >= `t_hot`
/// (the paper's hot/ordinary split used throughout Sections IV and V).
std::vector<uint8_t> ComputeHotFlags(const BipartiteGraph& graph, uint64_t t_hot);

/// Derives T_hot from the graph with the 80/20 rule of Section IV-A: rank
/// items by total clicks and accumulate until `mass_fraction` of all clicks
/// is covered; returns the click total of the last item taken.
uint64_t DeriveHotThreshold(const BipartiteGraph& graph, double mass_fraction);

}  // namespace ricd::graph

#endif  // RICD_GRAPH_HOT_ITEMS_H_
