// Unit tests for the deletion-only graph overlay and connected components.

#include "graph/mutable_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "graph/hot_items.h"

namespace ricd::graph {
namespace {

// Two disconnected bicliques:
//   users {1,2} x items {10,11}, and users {3,4} x items {12,13}.
table::ClickTable TwoBicliques() {
  table::ClickTable t;
  for (table::UserId u : {1, 2}) {
    for (table::ItemId i : {10, 11}) t.Append(u, i, 2);
  }
  for (table::UserId u : {3, 4}) {
    for (table::ItemId i : {12, 13}) t.Append(u, i, 3);
  }
  return t;
}

TEST(MutableViewTest, InitialStateMatchesGraph) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  EXPECT_EQ(view.NumActive(Side::kUser), 4u);
  EXPECT_EQ(view.NumActive(Side::kItem), 4u);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    EXPECT_TRUE(view.IsActive(Side::kUser, u));
    EXPECT_EQ(view.ActiveDegree(Side::kUser, u), g.Degree(Side::kUser, u));
  }
}

TEST(MutableViewTest, RemoveDecrementsNeighborDegrees) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  VertexId u1 = 0;
  ASSERT_TRUE(g.LookupUser(1, &u1));
  view.Remove(Side::kUser, u1);
  EXPECT_FALSE(view.IsActive(Side::kUser, u1));
  EXPECT_EQ(view.NumActive(Side::kUser), 3u);
  VertexId i10 = 0;
  ASSERT_TRUE(g.LookupItem(10, &i10));
  EXPECT_EQ(view.ActiveDegree(Side::kItem, i10), 1u);
}

TEST(MutableViewTest, RemoveIsIdempotent) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  view.Remove(Side::kUser, 0);
  view.Remove(Side::kUser, 0);
  EXPECT_EQ(view.NumActive(Side::kUser), 3u);
  VertexId i10 = 0;
  ASSERT_TRUE(g.LookupItem(10, &i10));
  // Degree decremented exactly once despite the double removal.
  EXPECT_EQ(view.ActiveDegree(Side::kItem, i10), 1u);
}

TEST(MutableViewTest, ActiveNeighborsFiltersInactive) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  VertexId i10 = 0;
  VertexId u1 = 0;
  ASSERT_TRUE(g.LookupItem(10, &i10));
  ASSERT_TRUE(g.LookupUser(1, &u1));
  view.Remove(Side::kUser, u1);
  const auto n = view.ActiveNeighbors(Side::kItem, i10);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_NE(n[0], u1);
}

TEST(MutableViewTest, ResetRestoresEverything) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  view.Remove(Side::kUser, 0);
  view.Remove(Side::kItem, 2);
  view.Reset();
  EXPECT_EQ(view.NumActive(Side::kUser), 4u);
  EXPECT_EQ(view.NumActive(Side::kItem), 4u);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    EXPECT_EQ(view.ActiveDegree(Side::kUser, u), g.Degree(Side::kUser, u));
  }
}

TEST(MutableViewTest, ActiveVerticesAscending) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  view.Remove(Side::kUser, 1);
  const auto v = view.ActiveVertices(Side::kUser);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(ConnectedComponentsTest, FindsBothBicliques) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  const auto groups = ActiveConnectedComponents(view);
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& grp : groups) {
    EXPECT_EQ(grp.users.size(), 2u);
    EXPECT_EQ(grp.items.size(), 2u);
    EXPECT_TRUE(std::is_sorted(grp.users.begin(), grp.users.end()));
    EXPECT_TRUE(std::is_sorted(grp.items.begin(), grp.items.end()));
  }
}

TEST(ConnectedComponentsTest, RemovalSplitsOrShrinksComponents) {
  // A path-like structure: u1-i1-u2-i2; removing u2 leaves one component
  // with u1, i1 only (i2 becomes isolated and is skipped).
  table::ClickTable t;
  t.Append(1, 1, 1);
  t.Append(2, 1, 1);
  t.Append(2, 2, 1);
  auto g = GraphBuilder::FromTable(t).value();
  MutableView view(g);
  EXPECT_EQ(ActiveConnectedComponents(view).size(), 1u);

  VertexId u2 = 0;
  ASSERT_TRUE(g.LookupUser(2, &u2));
  view.Remove(Side::kUser, u2);
  const auto groups = ActiveConnectedComponents(view);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].users.size(), 1u);
  EXPECT_EQ(groups[0].items.size(), 1u);
}

TEST(ConnectedComponentsTest, IsolatedVerticesSkipped) {
  auto g = GraphBuilder::FromTable(TwoBicliques()).value();
  MutableView view(g);
  // Remove all items of the first biclique: its users become isolated.
  VertexId i10 = 0;
  VertexId i11 = 0;
  ASSERT_TRUE(g.LookupItem(10, &i10));
  ASSERT_TRUE(g.LookupItem(11, &i11));
  view.Remove(Side::kItem, i10);
  view.Remove(Side::kItem, i11);
  const auto groups = ActiveConnectedComponents(view);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].users.size(), 2u);
}

TEST(ConnectedComponentsTest, EmptyGraph) {
  auto g = GraphBuilder::FromTable(table::ClickTable()).value();
  MutableView view(g);
  EXPECT_TRUE(ActiveConnectedComponents(view).empty());
}

/// Oracle: breadth-first search from each active user of non-zero active
/// degree, in ascending order, over every active neighbour of both sides.
std::vector<Group> BfsComponents(const MutableView& view) {
  const BipartiteGraph& g = view.graph();
  std::vector<uint8_t> user_visited(g.num_users(), 0);
  std::vector<uint8_t> item_visited(g.num_items(), 0);
  std::vector<Group> groups;
  for (VertexId start = 0; start < g.num_users(); ++start) {
    if (user_visited[start] || !view.IsActive(Side::kUser, start) ||
        view.ActiveDegree(Side::kUser, start) == 0) {
      continue;
    }
    Group group;
    std::deque<std::pair<Side, VertexId>> frontier;
    frontier.emplace_back(Side::kUser, start);
    user_visited[start] = 1;
    while (!frontier.empty()) {
      const auto [side, v] = frontier.front();
      frontier.pop_front();
      (side == Side::kUser ? group.users : group.items).push_back(v);
      auto& other_visited = side == Side::kUser ? item_visited : user_visited;
      for (const VertexId w : g.Neighbors(side, v)) {
        if (other_visited[w] || !view.IsActive(Other(side), w)) continue;
        other_visited[w] = 1;
        frontier.emplace_back(Other(side), w);
      }
    }
    std::sort(group.users.begin(), group.users.end());
    std::sort(group.items.begin(), group.items.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

/// Property: on random sparse graphs with random users and items removed,
/// the components, their order and their member lists equal the BFS
/// oracle's.
class ComponentsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ComponentsPropertyTest, MatchesBfsOracle) {
  Rng rng(GetParam());
  const uint64_t users = 1 + rng.Uniform(200);
  const uint64_t items = 1 + rng.Uniform(200);
  table::ClickTable t;
  for (uint64_t r = rng.Uniform(400); r > 0; --r) {
    t.Append(static_cast<table::UserId>(rng.Uniform(users)),
             static_cast<table::ItemId>(rng.Uniform(items)), 1);
  }
  const BipartiteGraph g = GraphBuilder::FromTable(t).value();
  MutableView view(g);
  for (int round = 0; round < 4; ++round) {
    const std::vector<Group> got = ActiveConnectedComponents(view);
    const std::vector<Group> want = BfsComponents(view);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c].users, want[c].users) << "round " << round;
      EXPECT_EQ(got[c].items, want[c].items) << "round " << round;
    }
    const double drop = 0.1 * (round + 1);
    for (VertexId u = 0; u < g.num_users(); ++u) {
      if (rng.Bernoulli(drop)) view.Remove(Side::kUser, u);
    }
    for (VertexId v = 0; v < g.num_items(); ++v) {
      if (rng.Bernoulli(drop)) view.Remove(Side::kItem, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentsPropertyTest,
                         ::testing::Range(1, 41));

TEST(HotItemsTest, FlagsMatchThreshold) {
  table::ClickTable t;
  t.Append(1, 1, 100);
  t.Append(1, 2, 5);
  auto g = GraphBuilder::FromTable(t).value();
  const auto flags = ComputeHotFlags(g, 50);
  VertexId i1 = 0;
  VertexId i2 = 0;
  ASSERT_TRUE(g.LookupItem(1, &i1));
  ASSERT_TRUE(g.LookupItem(2, &i2));
  EXPECT_EQ(flags[i1], 1);
  EXPECT_EQ(flags[i2], 0);
}

TEST(HotItemsTest, ThresholdBoundaryIsInclusive) {
  table::ClickTable t;
  t.Append(1, 1, 50);
  auto g = GraphBuilder::FromTable(t).value();
  EXPECT_EQ(ComputeHotFlags(g, 50)[0], 1);
  EXPECT_EQ(ComputeHotFlags(g, 51)[0], 0);
}

TEST(HotItemsTest, DeriveHotThresholdPicksMassBoundary) {
  table::ClickTable t;
  t.Append(1, 1, 80);
  t.Append(2, 2, 15);
  t.Append(3, 3, 5);
  auto g = GraphBuilder::FromTable(t).value();
  EXPECT_EQ(DeriveHotThreshold(g, 0.8), 80u);
  EXPECT_EQ(DeriveHotThreshold(g, 0.9), 15u);
}

TEST(HotItemsTest, EmptyGraphThresholdZero) {
  auto g = GraphBuilder::FromTable(table::ClickTable()).value();
  EXPECT_EQ(DeriveHotThreshold(g, 0.8), 0u);
}

}  // namespace
}  // namespace ricd::graph
