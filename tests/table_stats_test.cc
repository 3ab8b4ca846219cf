// Unit tests for Table I/II statistics and the click histograms.

#include "table/table_stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ricd::table {
namespace {

// Two users, three items:
//   u1: (i1, 4), (i2, 2)   -> 6 clicks, degree 2
//   u2: (i1, 6)            -> 6 clicks, degree 1
ClickTable Sample() {
  ClickTable t;
  t.Append(1, 1, 4);
  t.Append(1, 2, 2);
  t.Append(2, 1, 6);
  return t;
}

TEST(TableStatsTest, CountsAndTotals) {
  const TableStats s = ComputeTableStats(Sample());
  EXPECT_EQ(s.num_users, 2u);
  EXPECT_EQ(s.num_items, 2u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_EQ(s.total_clicks, 12u);
}

TEST(TableStatsTest, UserSideAverages) {
  const TableStats s = ComputeTableStats(Sample());
  EXPECT_DOUBLE_EQ(s.user_side.avg_clicks, 6.0);
  EXPECT_DOUBLE_EQ(s.user_side.avg_degree, 1.5);
  EXPECT_DOUBLE_EQ(s.user_side.stdev_clicks, 0.0);  // both users have 6
}

TEST(TableStatsTest, ItemSideAverages) {
  const TableStats s = ComputeTableStats(Sample());
  // i1: 10 clicks (2 users), i2: 2 clicks (1 user).
  EXPECT_DOUBLE_EQ(s.item_side.avg_clicks, 6.0);
  EXPECT_DOUBLE_EQ(s.item_side.avg_degree, 1.5);
  EXPECT_DOUBLE_EQ(s.item_side.stdev_clicks, 4.0);  // population stdev of {10,2}
}

TEST(TableStatsTest, DuplicatePairsCountAsOneEdge) {
  ClickTable t;
  t.Append(1, 1, 2);
  t.Append(1, 1, 3);  // same pair, unconsolidated
  const TableStats s = ComputeTableStats(t);
  EXPECT_EQ(s.num_edges, 1u);
  EXPECT_EQ(s.total_clicks, 5u);
  EXPECT_DOUBLE_EQ(s.user_side.avg_degree, 1.0);
}

TEST(TableStatsTest, EmptyTable) {
  const TableStats s = ComputeTableStats(ClickTable());
  EXPECT_EQ(s.num_users, 0u);
  EXPECT_EQ(s.num_edges, 0u);
  EXPECT_DOUBLE_EQ(s.user_side.avg_clicks, 0.0);
}

TEST(HistogramTest, ItemHistogramBucketsAreLog2) {
  ClickTable t;
  t.Append(1, 1, 1);   // bucket [1,2)
  t.Append(1, 2, 3);   // bucket [2,4)
  t.Append(1, 3, 9);   // bucket [8,16)
  const auto h = ItemClickHistogram(t);
  ASSERT_EQ(h.size(), 4u);  // up to [8,16)
  EXPECT_EQ(h[0].lower, 1u);
  EXPECT_EQ(h[0].upper, 2u);
  EXPECT_EQ(h[0].count, 1u);
  EXPECT_EQ(h[1].count, 1u);
  EXPECT_EQ(h[2].count, 0u);
  EXPECT_EQ(h[3].count, 1u);
}

TEST(HistogramTest, UserHistogramAggregatesAcrossItems) {
  ClickTable t;
  t.Append(1, 1, 3);
  t.Append(1, 2, 5);  // user 1 total: 8 -> bucket [8,16)
  const auto h = UserClickHistogram(t);
  ASSERT_FALSE(h.empty());
  uint64_t total = 0;
  for (const auto& b : h) total += b.count;
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(h.back().count, 1u);
}

TEST(HistogramTest, EmptyTableYieldsNoBuckets) {
  EXPECT_TRUE(ItemClickHistogram(ClickTable()).empty());
  EXPECT_TRUE(UserClickHistogram(ClickTable()).empty());
}

}  // namespace
}  // namespace ricd::table
