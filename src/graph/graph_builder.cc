#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "graph/id_lookup.h"

namespace ricd::graph {
namespace {

Status TooManyIds() {
  return Status::OutOfRange("too many distinct users/items for 32-bit ids");
}

/// Frees a temporary array now rather than at the end of the build.
template <typename T>
void Release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

Result<BipartiteGraph> GraphBuilder::FromTable(const table::ClickTable& table) {
  GraphArrays g;
  const size_t n = table.num_rows();
  const std::vector<table::UserId>& users = table.user_column();
  const std::vector<table::ItemId>& items = table.item_column();
  const std::vector<table::ClickCount>& clicks = table.click_column();

  // Pass 1: compact external ids in first-seen order and count each dense
  // id's rows. A row whose user repeats the previous row's reuses its dense
  // id. While each new user run starts above the previous one, the run's
  // user is new and takes the next dense id without a probe; the user map
  // is filled from the ids so far only when that order first breaks. So a
  // table sorted by user (every consolidated table is) never probes for a
  // user. The id maps live only for this pass; the finished graph answers
  // lookups from its id sections.
  std::vector<VertexId> row_user(n);
  std::vector<VertexId> row_item(n);
  std::vector<uint64_t> user_next;  // rows per user, then sort cursors
  std::vector<uint64_t> item_next;  // rows per item, then sort cursors
  {
    FlatIdMap user_map;
    FlatIdMap item_map;
    VertexId u = 0;
    for (size_t i = 0; i < n; ++i) {
      if (clicks[i] == 0) {
        return Status::InvalidArgument(
            StringPrintf("row %zu has zero clicks", i));
      }
      if (i == 0 || users[i] != users[i - 1]) {
        if (user_map.empty() && (i == 0 || users[i] > users[i - 1])) {
          u = static_cast<VertexId>(g.user_ids.size());
        } else {
          if (user_map.empty()) user_map = FlatIdMap(g.user_ids);
          u = user_map.FindOrInsert(users[i]);
        }
        if (u == FlatIdMap::kNoId) return TooManyIds();
        if (u == g.user_ids.size()) {
          g.user_ids.push_back(users[i]);
          user_next.push_back(0);
        }
      }
      const VertexId v = item_map.FindOrInsert(items[i]);
      if (v == FlatIdMap::kNoId) return TooManyIds();
      if (v == g.item_ids.size()) {
        g.item_ids.push_back(items[i]);
        item_next.push_back(0);
      }
      row_user[i] = u;
      row_item[i] = v;
      ++user_next[u];
      ++item_next[v];
    }
  }
  const auto num_users = static_cast<uint32_t>(g.user_ids.size());
  const auto num_items = static_cast<uint32_t>(g.item_ids.size());

  // Pass 2: two stable counting sorts put the rows in (user, item) order
  // with duplicates adjacent: by item carrying (user, clicks), then by user
  // carrying (item, clicks) straight into the user-CSR arrays.
  std::exclusive_scan(item_next.begin(), item_next.end(), item_next.begin(),
                      uint64_t{0});
  std::vector<VertexId> by_item_user(n);
  std::vector<table::ClickCount> by_item_clicks(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t slot = item_next[row_item[i]]++;
    by_item_user[slot] = row_user[i];
    by_item_clicks[slot] = clicks[i];
  }
  Release(row_user);
  Release(row_item);

  // item_next[v] now ends item v's run.
  std::exclusive_scan(user_next.begin(), user_next.end(), user_next.begin(),
                      uint64_t{0});
  g.user_adj.resize(n);
  g.user_clicks.resize(n);
  {
    uint64_t k = 0;
    for (VertexId v = 0; v < num_items; ++v) {
      for (; k < item_next[v]; ++k) {
        const uint64_t slot = user_next[by_item_user[k]]++;
        g.user_adj[slot] = v;
        g.user_clicks[slot] = by_item_clicks[k];
      }
    }
  }
  Release(by_item_user);
  Release(by_item_clicks);
  Release(item_next);

  // Pass 3: merge duplicates in place, summing into user totals and
  // counting item degrees. Merging saturates, and a saturating sum of
  // positive counts does not depend on row order. user_next[u] now ends
  // user u's run.
  constexpr uint64_t kMaxClicks = std::numeric_limits<table::ClickCount>::max();
  g.user_offsets.resize(num_users + 1);
  g.user_total_clicks.resize(num_users);
  g.item_offsets.assign(num_items + 1, 0);
  {
    uint64_t r = 0;
    uint64_t w = 0;
    for (VertexId u = 0; u < num_users; ++u) {
      const uint64_t end = user_next[u];
      uint64_t total = 0;
      while (r < end) {
        const VertexId v = g.user_adj[r];
        uint64_t sum = g.user_clicks[r++];
        for (; r < end && g.user_adj[r] == v; ++r) {
          sum = std::min(sum + g.user_clicks[r], kMaxClicks);
        }
        g.user_adj[w] = v;
        g.user_clicks[w++] = static_cast<table::ClickCount>(sum);
        ++g.item_offsets[v + 1];
        total += sum;
      }
      g.user_offsets[u + 1] = w;
      g.user_total_clicks[u] = total;
      g.total_clicks += total;
    }
    g.user_adj.resize(w);
    g.user_clicks.resize(w);
  }
  Release(user_next);

  // Pass 4: transpose user-CSR into item-CSR, summing item totals.
  // Iterating users in order keeps each item's user list sorted without a
  // per-item sort.
  const uint64_t num_edges = g.user_adj.size();
  for (uint32_t v = 0; v < num_items; ++v) {
    g.item_offsets[v + 1] += g.item_offsets[v];
  }
  g.item_adj.resize(num_edges);
  g.item_clicks.resize(num_edges);
  g.item_total_clicks.assign(num_items, 0);
  {
    std::vector<uint64_t> cursor(g.item_offsets.begin(),
                                 g.item_offsets.end() - 1);
    for (VertexId u = 0; u < num_users; ++u) {
      for (uint64_t e = g.user_offsets[u]; e < g.user_offsets[u + 1]; ++e) {
        const VertexId v = g.user_adj[e];
        const uint64_t slot = cursor[v]++;
        g.item_adj[slot] = u;
        g.item_clicks[slot] = g.user_clicks[e];
        g.item_total_clicks[v] += g.user_clicks[e];
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

  return BipartiteGraph::FromArrays(std::move(g));
}

}  // namespace ricd::graph
