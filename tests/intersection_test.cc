// Unit + property tests for sorted-span intersection kernels.

#include "graph/intersection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"

namespace ricd::graph {
namespace {

std::vector<VertexId> V(std::initializer_list<VertexId> xs) { return xs; }

TEST(IntersectionTest, Basic) {
  const auto a = V({1, 3, 5, 7});
  const auto b = V({2, 3, 6, 7, 9});
  EXPECT_EQ(IntersectionSize(a, b), 2u);
  EXPECT_EQ(IntersectionSize(b, a), 2u);
}

TEST(IntersectionTest, EmptyInputs) {
  const auto a = V({1, 2});
  const std::vector<VertexId> empty;
  EXPECT_EQ(IntersectionSize(a, empty), 0u);
  EXPECT_EQ(IntersectionSize(empty, a), 0u);
  EXPECT_EQ(IntersectionSize(empty, empty), 0u);
}

TEST(IntersectionTest, IdenticalSpans) {
  const auto a = V({2, 4, 6, 8});
  EXPECT_EQ(IntersectionSize(a, a), 4u);
}

TEST(IntersectionTest, Disjoint) {
  EXPECT_EQ(IntersectionSize(V({1, 2, 3}), V({4, 5, 6})), 0u);
}

TEST(IntersectionTest, AtLeastStopsAtThreshold) {
  const auto a = V({1, 2, 3, 4, 5});
  EXPECT_EQ(IntersectionAtLeast(a, a, 3), 3u);
  EXPECT_EQ(IntersectionAtLeast(a, a, 10), 5u);
  EXPECT_EQ(IntersectionAtLeast(a, a, 0), 0u);
}

TEST(IntersectionTest, GallopPathTriggeredBySkew) {
  // Small span of 3 vs large span of 200 -> gallop path (ratio >= 16).
  std::vector<VertexId> large;
  for (VertexId i = 0; i < 200; ++i) large.push_back(i * 2);
  const auto small = V({0, 101, 398});
  EXPECT_EQ(IntersectionSize(small, large), 2u);  // 0 and 398 are even
  EXPECT_EQ(IntersectionAtLeast(small, large, 1), 1u);
}

/// Property: both kernels agree with a std::set-based oracle on random
/// inputs with varying size skew.
class IntersectionPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IntersectionPropertyTest, MatchesSetOracle) {
  const auto [size_a, size_b] = GetParam();
  Rng rng(1234 + size_a * 1000 + size_b);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<VertexId> sa;
    std::set<VertexId> sb;
    while (static_cast<int>(sa.size()) < size_a) {
      sa.insert(static_cast<VertexId>(rng.Uniform(1000)));
    }
    while (static_cast<int>(sb.size()) < size_b) {
      sb.insert(static_cast<VertexId>(rng.Uniform(1000)));
    }
    std::vector<VertexId> a(sa.begin(), sa.end());
    std::vector<VertexId> b(sb.begin(), sb.end());
    std::vector<VertexId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(IntersectionSize(a, b), expected.size());
    // Capped variant agrees up to the cap.
    const uint64_t cap = 1 + rng.Uniform(10);
    EXPECT_EQ(IntersectionAtLeast(a, b, cap),
              std::min<uint64_t>(cap, expected.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSkews, IntersectionPropertyTest,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{5, 5},
                      std::pair<int, int>{3, 100}, std::pair<int, int>{100, 3},
                      std::pair<int, int>{50, 800},
                      std::pair<int, int>{200, 200}));

TEST(IntersectionTest, DensePathTriggeredByTightRange) {
  // Two interleaved runs over [0, 512): range <= 8 * (|a| + |b|) -> the
  // bitset pair path. Equal-size inputs, so no gallop.
  std::vector<VertexId> a;
  std::vector<VertexId> b;
  for (VertexId i = 0; i < 512; ++i) {
    if (i % 2 == 0) a.push_back(i);
    if (i % 3 == 0) b.push_back(i);
  }
  std::vector<VertexId> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(IntersectionSize(a, b), expected.size());  // multiples of 6
  EXPECT_EQ(IntersectionAtLeast(a, b, 1000), expected.size());
}

TEST(IntersectionTest, BlockMergeHandlesUnalignedTails) {
  // Sizes straddling the 8-wide block boundary exercise the scalar tail.
  for (const int size : {7, 8, 9, 15, 16, 17, 63, 64, 65}) {
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    // Spread ids far apart so the dense path's range heuristic rejects.
    for (int i = 0; i < size; ++i) {
      a.push_back(static_cast<VertexId>(i * 1000));
      b.push_back(static_cast<VertexId>(i * 1500));
    }
    std::vector<VertexId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(IntersectionSize(a, b), expected.size()) << "size=" << size;
  }
}

TEST(BitsetIntersectorTest, CountMatchesMergeKernel) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<VertexId> base_set;
    const int base_size = 1 + static_cast<int>(rng.Uniform(300));
    while (static_cast<int>(base_set.size()) < base_size) {
      base_set.insert(static_cast<VertexId>(rng.Uniform(2000)));
    }
    const std::vector<VertexId> base(base_set.begin(), base_set.end());
    BitsetIntersector bitset;
    bitset.Load(base, 2000);
    EXPECT_EQ(bitset.base_size(), base.size());

    for (int probe_trial = 0; probe_trial < 10; ++probe_trial) {
      std::set<VertexId> probe_set;
      const int probe_size = static_cast<int>(rng.Uniform(150));
      while (static_cast<int>(probe_set.size()) < probe_size) {
        probe_set.insert(static_cast<VertexId>(rng.Uniform(2000)));
      }
      const std::vector<VertexId> probe(probe_set.begin(), probe_set.end());
      EXPECT_EQ(bitset.Count(probe), IntersectionSize(base, probe));
    }
  }
}

TEST(BitsetIntersectorTest, ReloadClearsPreviousBase) {
  BitsetIntersector bitset;
  bitset.Load(V({1, 2, 3}), 100);
  EXPECT_EQ(bitset.Count(V({1, 2, 3})), 3u);
  // Smaller universe + disjoint base: stale bits from the first load must
  // not leak into the second.
  bitset.Load(V({50, 60}), 100);
  EXPECT_EQ(bitset.Count(V({1, 2, 3})), 0u);
  EXPECT_EQ(bitset.Count(V({50, 60})), 2u);
  bitset.Load({}, 100);
  EXPECT_EQ(bitset.Count(V({50, 60})), 0u);
}

TEST(BitsetIntersectorTest, CountAndMatchesThreeWayOracle) {
  Rng rng(31);
  std::set<VertexId> sa;
  std::set<VertexId> sb;
  for (int i = 0; i < 200; ++i) {
    sa.insert(static_cast<VertexId>(rng.Uniform(1000)));
    sb.insert(static_cast<VertexId>(rng.Uniform(1000)));
  }
  const std::vector<VertexId> a(sa.begin(), sa.end());
  const std::vector<VertexId> b(sb.begin(), sb.end());
  BitsetIntersector ba;
  BitsetIntersector bb;
  ba.Load(a, 1000);
  bb.Load(b, 1000);
  EXPECT_EQ(ba.CountAnd(bb), IntersectionSize(a, b));
  EXPECT_EQ(bb.CountAnd(ba), IntersectionSize(a, b));
}

TEST(BitsetIntersectorTest, ShouldUseHeuristic) {
  // Worth it only with enough probes over a big enough base.
  EXPECT_TRUE(BitsetIntersector::ShouldUse(64, 4));
  EXPECT_FALSE(BitsetIntersector::ShouldUse(63, 4));
  EXPECT_FALSE(BitsetIntersector::ShouldUse(64, 3));
  EXPECT_TRUE(BitsetIntersector::ShouldUse(10000, 100));
}

}  // namespace
}  // namespace ricd::graph
