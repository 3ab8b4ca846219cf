#ifndef RICD_TABLE_TABLE_STATS_H_
#define RICD_TABLE_TABLE_STATS_H_

#include <cstdint>
#include <vector>

#include "table/click_table.h"

namespace ricd::table {

/// Per-side aggregate statistics matching the paper's Table II: the average
/// total clicks per node (Avg_clk), the average number of distinct
/// counterparts per node (Avg_cnt, i.e. edges per node), and the standard
/// deviation of total clicks per node (Stdev).
struct SideStats {
  double avg_clicks = 0.0;   // Avg_clk
  double avg_degree = 0.0;   // Avg_cnt
  double stdev_clicks = 0.0; // Stdev
};

/// Dataset-level statistics matching the paper's Table I + Table II.
struct TableStats {
  uint64_t num_users = 0;
  uint64_t num_items = 0;
  uint64_t num_edges = 0;       // Edge = consolidated (user, item) rows
  uint64_t total_clicks = 0;    // Total_click
  SideStats user_side;
  SideStats item_side;
};

/// Computes Table I/II statistics. The table need not be consolidated;
/// duplicate (user, item) rows are merged for the edge count.
TableStats ComputeTableStats(const ClickTable& table);

/// One bucket of a log2-binned histogram: counts nodes whose total clicks
/// fall in [lower, upper).
struct HistogramBucket {
  uint64_t lower = 0;
  uint64_t upper = 0;
  uint64_t count = 0;
};

/// Log2-binned histogram of per-item total clicks (Fig. 2a's distribution).
std::vector<HistogramBucket> ItemClickHistogram(const ClickTable& table);

/// Log2-binned histogram of per-user total clicks (Fig. 2b's distribution).
std::vector<HistogramBucket> UserClickHistogram(const ClickTable& table);

/// The paper's abnormal-click threshold derivation (Eq. 4):
///   T_click = (Avg_clk * 80%) / (Avg_cnt * 20%)
/// over the user side — "a crowd worker's few target items absorb most of
/// its disguise click budget". Returns at least 1; 0 only for empty input.
uint32_t DeriveTClick(const TableStats& stats);

}  // namespace ricd::table

#endif  // RICD_TABLE_TABLE_STATS_H_
