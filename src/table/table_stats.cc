#include "table/table_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace ricd::table {
namespace {

struct NodeAgg {
  uint64_t clicks = 0;
  uint64_t degree = 0;
};

SideStats ComputeSideStats(const std::unordered_map<int64_t, NodeAgg>& agg) {
  SideStats s;
  if (agg.empty()) return s;
  const double n = static_cast<double>(agg.size());
  double sum_clicks = 0.0;
  double sum_degree = 0.0;
  for (const auto& [id, a] : agg) {
    sum_clicks += static_cast<double>(a.clicks);
    sum_degree += static_cast<double>(a.degree);
  }
  s.avg_clicks = sum_clicks / n;
  s.avg_degree = sum_degree / n;
  double var = 0.0;
  for (const auto& [id, a] : agg) {
    const double d = static_cast<double>(a.clicks) - s.avg_clicks;
    var += d * d;
  }
  s.stdev_clicks = std::sqrt(var / n);
  return s;
}

std::vector<HistogramBucket> LogHistogram(std::vector<uint64_t> totals) {
  std::vector<HistogramBucket> buckets;
  if (totals.empty()) return buckets;
  const uint64_t max_total = *std::max_element(totals.begin(), totals.end());
  uint64_t lower = 1;
  while (lower <= max_total) {
    const uint64_t upper = lower * 2;
    buckets.push_back({lower, upper, 0});
    lower = upper;
  }
  for (uint64_t t : totals) {
    if (t == 0) continue;
    // Bucket index = floor(log2(t)).
    size_t idx = 0;
    uint64_t v = t;
    while (v > 1) {
      v >>= 1;
      ++idx;
    }
    buckets[idx].count++;
  }
  return buckets;
}

}  // namespace

TableStats ComputeTableStats(const ClickTable& table) {
  TableStats stats;
  std::unordered_map<int64_t, NodeAgg> users;
  std::unordered_map<int64_t, NodeAgg> items;
  users.reserve(table.num_rows() / 4 + 1);
  items.reserve(table.num_rows() / 8 + 1);

  // Duplicate (user, item) rows must count as one edge; detect them without
  // a full consolidation pass when the table is already sorted.
  const bool consolidated = table.IsConsolidated();
  std::unordered_set<uint64_t> seen_pairs;

  for (size_t i = 0; i < table.num_rows(); ++i) {
    const UserId u = table.user(i);
    const ItemId v = table.item(i);
    const ClickCount c = table.clicks(i);
    auto& ua = users[u];
    auto& va = items[v];
    ua.clicks += c;
    va.clicks += c;
    stats.total_clicks += c;

    bool new_edge = true;
    if (!consolidated) {
      // Pair-hash good enough for dedup at this scale.
      const uint64_t key = static_cast<uint64_t>(u) * 0x9e3779b97f4a7c15ULL ^
                           (static_cast<uint64_t>(v) + 0x7f4a7c15ULL);
      new_edge = seen_pairs.insert(key).second;
    }
    if (new_edge) {
      ++stats.num_edges;
      ++ua.degree;
      ++va.degree;
    }
  }

  stats.num_users = users.size();
  stats.num_items = items.size();
  stats.user_side = ComputeSideStats(users);
  stats.item_side = ComputeSideStats(items);
  return stats;
}

std::vector<HistogramBucket> ItemClickHistogram(const ClickTable& table) {
  std::unordered_map<int64_t, uint64_t> totals;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    totals[table.item(i)] += table.clicks(i);
  }
  std::vector<uint64_t> v;
  v.reserve(totals.size());
  for (const auto& [id, t] : totals) v.push_back(t);
  return LogHistogram(std::move(v));
}

std::vector<HistogramBucket> UserClickHistogram(const ClickTable& table) {
  std::unordered_map<int64_t, uint64_t> totals;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    totals[table.user(i)] += table.clicks(i);
  }
  std::vector<uint64_t> v;
  v.reserve(totals.size());
  for (const auto& [id, t] : totals) v.push_back(t);
  return LogHistogram(std::move(v));
}

uint32_t DeriveTClick(const TableStats& stats) {
  if (stats.user_side.avg_degree <= 0.0) return 0;
  const double t =
      (stats.user_side.avg_clicks * 0.8) / (stats.user_side.avg_degree * 0.2);
  if (t < 1.0) return 1;
  return static_cast<uint32_t>(t + 0.5);
}

}  // namespace ricd::table
