#include "obs/metric_names.h"
#include "ricd/graph_generator.h"

#include <unordered_set>

#include "common/logging.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::core {

Result<graph::BipartiteGraph> GenerateGraph(const table::ClickTable& table) {
  RICD_TRACE_SPAN("ricd.generation");
  return graph::GraphBuilder::FromTable(table);
}

Result<graph::BipartiteGraph> GenerateGraph(const table::ClickTable& table,
                                            const SeedSet& seeds) {
  if (seeds.empty()) return GenerateGraph(table);
  RICD_TRACE_SPAN("ricd.generation");

  // Build the full graph once, BFS two hops out from every seed, then
  // rebuild the graph on the induced rows. (Cheaper than per-seed
  // MaxBiGraph calls: seed neighborhoods overlap heavily in practice.)
  RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph full,
                        graph::GraphBuilder::FromTable(table));

  std::unordered_set<graph::VertexId> keep_users;
  std::unordered_set<graph::VertexId> keep_items;
  size_t unknown_seeds = 0;

  const auto expand_user = [&](graph::VertexId u) {
    keep_users.insert(u);
    for (const graph::VertexId v : full.UserNeighbors(u)) {
      keep_items.insert(v);
      for (const graph::VertexId w : full.ItemNeighbors(v)) keep_users.insert(w);
    }
  };
  const auto expand_item = [&](graph::VertexId v) {
    keep_items.insert(v);
    for (const graph::VertexId u : full.ItemNeighbors(v)) {
      keep_users.insert(u);
      for (const graph::VertexId w : full.UserNeighbors(u)) keep_items.insert(w);
    }
  };

  for (const table::UserId external : seeds.users) {
    graph::VertexId u = 0;
    if (full.LookupUser(external, &u)) {
      expand_user(u);
    } else {
      ++unknown_seeds;
    }
  }
  for (const table::ItemId external : seeds.items) {
    graph::VertexId v = 0;
    if (full.LookupItem(external, &v)) {
      expand_item(v);
    } else {
      ++unknown_seeds;
    }
  }
  if (unknown_seeds > 0) {
    RICD_LOG(WARNING) << unknown_seeds << " seed ids not present in the table";
  }
  if (keep_users.empty()) {
    return Status::NotFound("no seed resolved to a known node");
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::metric_names::kRicdGenerationSeedKeptUsers)->Add(keep_users.size());
  registry.GetCounter(obs::metric_names::kRicdGenerationSeedKeptItems)->Add(keep_items.size());

  // Induce the click rows on (kept user, kept item) pairs.
  table::ClickTable induced;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    if (!full.LookupUser(table.user(i), &u) ||
        !full.LookupItem(table.item(i), &v)) {
      continue;
    }
    if (keep_users.count(u) > 0 && keep_items.count(v) > 0) {
      induced.Append(table.user(i), table.item(i), table.clicks(i));
    }
  }
  return graph::GraphBuilder::FromTable(induced);
}

}  // namespace ricd::core
