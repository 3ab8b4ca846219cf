#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace ricd::graph {

Result<BipartiteGraph> GraphBuilder::FromTable(const table::ClickTable& table) {
  GraphArrays g;
  const size_t n = table.num_rows();

  // Pass 1: compact external ids in first-seen order. The id maps live only
  // for the build; the finished graph answers lookups from its id sections.
  std::unordered_map<table::UserId, VertexId> user_dense;
  std::unordered_map<table::ItemId, VertexId> item_dense;
  user_dense.reserve(n / 4 + 1);
  item_dense.reserve(n / 8 + 1);
  std::vector<VertexId> row_user(n);
  std::vector<VertexId> row_item(n);
  for (size_t i = 0; i < n; ++i) {
    if (table.clicks(i) == 0) {
      return Status::InvalidArgument(
          StringPrintf("row %zu has zero clicks", i));
    }
    const auto [uit, uinserted] = user_dense.try_emplace(
        table.user(i), static_cast<VertexId>(g.user_ids.size()));
    if (uinserted) g.user_ids.push_back(table.user(i));
    row_user[i] = uit->second;

    const auto [iit, iinserted] = item_dense.try_emplace(
        table.item(i), static_cast<VertexId>(g.item_ids.size()));
    if (iinserted) g.item_ids.push_back(table.item(i));
    row_item[i] = iit->second;
  }

  // Boundary check (always on): dense ids are 32-bit; a table with more
  // distinct users/items than VertexId can address would silently alias
  // vertices above.
  if (g.user_ids.size() > std::numeric_limits<VertexId>::max() ||
      g.item_ids.size() > std::numeric_limits<VertexId>::max()) {
    return Status::OutOfRange("too many distinct users/items for 32-bit ids");
  }
  const uint32_t num_users = static_cast<uint32_t>(g.user_ids.size());
  const uint32_t num_items = static_cast<uint32_t>(g.item_ids.size());

  // Pass 2: counting sort rows into user-CSR order, merging duplicates: a
  // stable sort by item, then a stable sort of that by user, so rows come
  // out by (user, item) with duplicates adjacent. Merging saturates, and a
  // saturating sum of positive counts does not depend on row order.
  const auto sort_by = [](const std::vector<VertexId>& key, uint32_t num_keys,
                          const std::vector<uint32_t>& rows,
                          std::vector<uint32_t>& out) {
    std::vector<uint32_t> start(num_keys + 1, 0);
    for (const VertexId k : key) ++start[k + 1];
    for (uint32_t k = 0; k < num_keys; ++k) start[k + 1] += start[k];
    for (const uint32_t row : rows) out[start[key[row]]++] = row;
  };
  std::vector<uint32_t> by_item(n);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  sort_by(row_item, num_items, order, by_item);
  sort_by(row_user, num_users, by_item, order);
  std::vector<uint32_t>().swap(by_item);

  g.user_offsets.assign(num_users + 1, 0);
  g.user_adj.reserve(n);
  g.user_clicks.reserve(n);
  constexpr uint64_t kMaxClicks = std::numeric_limits<table::ClickCount>::max();
  {
    VertexId prev_user = std::numeric_limits<VertexId>::max();
    VertexId prev_item = std::numeric_limits<VertexId>::max();
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t i = order[k];
      const VertexId u = row_user[i];
      const VertexId v = row_item[i];
      if (u == prev_user && v == prev_item) {
        const uint64_t sum =
            static_cast<uint64_t>(g.user_clicks.back()) + table.clicks(i);
        g.user_clicks.back() =
            static_cast<table::ClickCount>(std::min(sum, kMaxClicks));
      } else {
        g.user_adj.push_back(v);
        g.user_clicks.push_back(table.clicks(i));
        g.user_offsets[u + 1]++;
        prev_user = u;
        prev_item = v;
      }
    }
  }
  for (uint32_t u = 0; u < num_users; ++u) {
    g.user_offsets[u + 1] += g.user_offsets[u];
  }

  // Pass 3: transpose user-CSR into item-CSR. Iterating users in order keeps
  // each item's user list sorted without a per-item sort.
  const uint64_t num_edges = g.user_adj.size();
  g.item_offsets.assign(num_items + 1, 0);
  for (const VertexId v : g.user_adj) g.item_offsets[v + 1]++;
  for (uint32_t v = 0; v < num_items; ++v) {
    g.item_offsets[v + 1] += g.item_offsets[v];
  }
  g.item_adj.resize(num_edges);
  g.item_clicks.resize(num_edges);
  {
    std::vector<uint64_t> cursor(g.item_offsets.begin(),
                                 g.item_offsets.end() - 1);
    for (uint32_t u = 0; u < num_users; ++u) {
      for (uint64_t e = g.user_offsets[u]; e < g.user_offsets[u + 1]; ++e) {
        const VertexId v = g.user_adj[e];
        const uint64_t slot = cursor[v]++;
        g.item_adj[slot] = u;
        g.item_clicks[slot] = g.user_clicks[e];
      }
    }
  }

  // Construction post-conditions, debug-only: both CSR sides materialize
  // every merged edge exactly once. (The full O(E) structural audit lives
  // in check::ValidateBipartiteGraph, run by pipeline entry points behind
  // RICD_VALIDATE.)
  RICD_DCHECK_EQ(g.user_offsets.back(), g.user_adj.size());
  RICD_DCHECK_EQ(g.item_offsets.back(), g.item_adj.size());
  RICD_DCHECK_EQ(g.user_adj.size(), g.item_adj.size());

  // Weighted degrees.
  g.user_total_clicks.assign(num_users, 0);
  g.item_total_clicks.assign(num_items, 0);
  for (uint32_t u = 0; u < num_users; ++u) {
    uint64_t sum = 0;
    for (uint64_t e = g.user_offsets[u]; e < g.user_offsets[u + 1]; ++e) {
      sum += g.user_clicks[e];
      g.item_total_clicks[g.user_adj[e]] += g.user_clicks[e];
    }
    g.user_total_clicks[u] = sum;
    g.total_clicks += sum;
  }

  return BipartiteGraph::FromArrays(std::move(g));
}

}  // namespace ricd::graph
