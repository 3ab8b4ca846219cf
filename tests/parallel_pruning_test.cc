// Differential tests for the deterministic parallel pruning phases: the
// round-based SquarePruning and frontier CorePruning must produce output
// bit-identical to the sequential reference schedule for every worker
// count, seed, and parameter shape. Also unit-tests the two scheduling
// building blocks (RoundScheduler, PerWorkerBuffers).

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>
#include <vector>

#include "check/diff_result.h"
#include "common/random.h"
#include "engine/worker_buffers.h"
#include "engine/worker_engine.h"
#include "graph/graph_builder.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "ricd/identification.h"
#include "ricd/round_scheduler.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

/// A schedule that forces the parallel machinery on even for the small
/// graphs tests can afford: no sequential fallback, no frontier fallback,
/// and tiny rounds so one extraction runs many of them (plenty of chances
/// for a round to straddle a removal cascade).
PruneSchedule ForcedParallelSchedule() {
  PruneSchedule s;
  s.sequential_cutoff = 0;
  s.frontier_cutoff = 0;
  s.min_round = 4;
  s.initial_round = 8;
  s.max_round = 64;
  return s;
}

/// Messy workload: three overlapping planted bicliques of different sizes
/// plus background noise, so pruning has real cascades to resolve (square
/// removals re-triggering core removals across several sweeps).
table::ClickTable MakeWorkload(uint64_t seed) {
  table::ClickTable t;
  Rng rng(seed);
  // Biclique A: 10x10 over users [100,110), items [1000,1010).
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t i = 0; i < 10; ++i) t.Append(100 + u, 1000 + i, 7);
  }
  // Biclique B: 7x12, sharing three of A's items.
  for (uint32_t u = 0; u < 7; ++u) {
    for (uint32_t i = 0; i < 12; ++i) t.Append(200 + u, 1007 + i, 7);
  }
  // Biclique C: 6x6 minus a diagonal (imperfect, needs alpha < 1).
  for (uint32_t u = 0; u < 6; ++u) {
    for (uint32_t i = 0; i < 6; ++i) {
      if (u == i) continue;
      t.Append(300 + u, 2000 + i, 7);
    }
  }
  // Noise: 400 users clicking 2-5 random items from a 300-item pool.
  for (uint32_t u = 0; u < 400; ++u) {
    const uint32_t degree = 2 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t d = 0; d < degree; ++d) {
      t.Append(10000 + u, static_cast<table::ItemId>(rng.Uniform(300)), 1);
    }
  }
  t.ConsolidateDuplicates();
  return t;
}

RicdParams MakeParams(uint32_t k1, uint32_t k2, double alpha) {
  RicdParams p;
  p.k1 = k1;
  p.k2 = k2;
  p.alpha = alpha;
  p.t_hot = 1000000;
  return p;
}

/// One extraction as the diff oracle sees it: the groups, their
/// business-facing ranking and the extraction counters.
FrameworkResult AsResult(const graph::BipartiteGraph& g,
                         std::vector<graph::Group> groups,
                         const ExtractionStats& stats) {
  FrameworkResult result;
  result.ranked = RankByRisk(g, groups);
  result.detection.groups = std::move(groups);
  result.extraction_stats = stats;
  return result;
}

/// The core differential: full extraction (groups + stats + business-facing
/// ranking) is bit-identical between the sequential reference and the
/// forced-parallel schedule at 1, 2, 4, and 8 workers.
class ParallelExtractionTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, std::tuple<uint32_t, uint32_t, double>>> {};

TEST_P(ParallelExtractionTest, BitIdenticalToSequential) {
  const auto [seed, shape] = GetParam();
  const auto [k1, k2, alpha] = shape;
  const auto g = graph::GraphBuilder::FromTable(MakeWorkload(seed)).value();
  const RicdParams params = MakeParams(k1, k2, alpha);

  // Reference: single worker takes the classic immediate-removal cascade
  // regardless of schedule (workers == 1 short-circuits the round path).
  engine::WorkerEngine reference_engine(1);
  ExtractionStats ref_stats;
  auto ref =
      ExtensionBicliqueExtractor(params, &reference_engine).Extract(g, &ref_stats);
  ASSERT_TRUE(ref.ok());
  const FrameworkResult want = AsResult(g, std::move(ref).value(), ref_stats);

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    ExtractionStats stats;
    auto got = ExtensionBicliqueExtractor(params, &engine,
                                          ForcedParallelSchedule())
                   .Extract(g, &stats);
    ASSERT_TRUE(got.ok());
    const Status diff = check::DiffPipelineResult(
        want, AsResult(g, std::move(got).value(), stats));
    EXPECT_TRUE(diff.ok()) << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ParallelExtractionTest,
    ::testing::Combine(
        ::testing::Values(1u, 7u, 42u),
        ::testing::Values(std::tuple<uint32_t, uint32_t, double>{6, 6, 1.0},
                          std::tuple<uint32_t, uint32_t, double>{5, 5, 0.8},
                          std::tuple<uint32_t, uint32_t, double>{3, 4, 0.6})));

/// Frontier CorePruning leaves the view in exactly the state the sequential
/// deque cascade did: same active sets, same active degrees of the active
/// vertices. (Degrees of INACTIVE vertices are unspecified in both
/// schedules — nothing may read them.)
TEST(FrontierCorePruningTest, ViewStateMatchesSequential) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto g = graph::GraphBuilder::FromTable(MakeWorkload(seed)).value();
    const RicdParams params = MakeParams(5, 5, 0.9);

    engine::WorkerEngine seq_engine(1);
    ExtensionBicliqueExtractor seq(params, &seq_engine);
    graph::MutableView seq_view(g);
    seq.CorePruning(seq_view, nullptr);

    for (const size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      engine::WorkerEngine engine(workers);
      ExtensionBicliqueExtractor par(params, &engine, ForcedParallelSchedule());
      graph::MutableView view(g);
      par.CorePruning(view, nullptr);

      ASSERT_EQ(view.NumActive(Side::kUser), seq_view.NumActive(Side::kUser));
      ASSERT_EQ(view.NumActive(Side::kItem), seq_view.NumActive(Side::kItem));
      for (VertexId u = 0; u < g.num_users(); ++u) {
        ASSERT_EQ(view.IsActive(Side::kUser, u),
                  seq_view.IsActive(Side::kUser, u));
        if (view.IsActive(Side::kUser, u)) {
          ASSERT_EQ(view.ActiveDegree(Side::kUser, u),
                    seq_view.ActiveDegree(Side::kUser, u));
        }
      }
      for (VertexId v = 0; v < g.num_items(); ++v) {
        ASSERT_EQ(view.IsActive(Side::kItem, v),
                  seq_view.IsActive(Side::kItem, v));
        if (view.IsActive(Side::kItem, v)) {
          ASSERT_EQ(view.ActiveDegree(Side::kItem, v),
                    seq_view.ActiveDegree(Side::kItem, v));
        }
      }
    }
  }
}

/// Pinning the round size (what RICD_ROUND_SIZE does) must not change
/// output either — the equivalence argument is per-round-size-agnostic.
TEST(ParallelExtractionTest, AnyPinnedRoundSizeMatches) {
  const auto g = graph::GraphBuilder::FromTable(MakeWorkload(42)).value();
  const RicdParams params = MakeParams(5, 5, 0.8);
  engine::WorkerEngine seq_engine(1);
  ExtractionStats ref_stats;
  auto ref =
      ExtensionBicliqueExtractor(params, &seq_engine).Extract(g, &ref_stats);
  ASSERT_TRUE(ref.ok());
  const FrameworkResult want = AsResult(g, std::move(ref).value(), ref_stats);

  engine::WorkerEngine engine(4);
  for (const uint32_t pinned : {1u, 3u, 17u, 1000u}) {
    SCOPED_TRACE(testing::Message() << "round=" << pinned);
    PruneSchedule s = ForcedParallelSchedule();
    s.min_round = pinned;
    s.initial_round = pinned;
    s.max_round = pinned;
    ExtractionStats stats;
    auto got =
        ExtensionBicliqueExtractor(params, &engine, s).Extract(g, &stats);
    ASSERT_TRUE(got.ok());
    const Status diff = check::DiffPipelineResult(
        want, AsResult(g, std::move(got).value(), stats));
    EXPECT_TRUE(diff.ok()) << diff;
  }
}

TEST(RoundSchedulerTest, GrowsWhenCleanShrinksWhenDense) {
  PruneSchedule s;
  s.min_round = 16;
  s.initial_round = 64;
  s.max_round = 256;
  RoundScheduler rounds(s);
  EXPECT_EQ(rounds.current_round_size(), 64u);

  rounds.Observe(64, 0);  // clean round -> double
  EXPECT_EQ(rounds.current_round_size(), 128u);
  rounds.Observe(128, 0);
  rounds.Observe(256, 0);  // capped at max
  EXPECT_EQ(rounds.current_round_size(), 256u);

  rounds.Observe(256, 32);  // density 1/8 -> halve
  EXPECT_EQ(rounds.current_round_size(), 128u);
  rounds.Observe(128, 127);
  rounds.Observe(64, 64);
  rounds.Observe(32, 32);  // floored at min
  EXPECT_EQ(rounds.current_round_size(), 16u);

  rounds.Observe(16, 1);  // sparse removals: size holds
  EXPECT_EQ(rounds.current_round_size(), 16u);
}

TEST(RoundSchedulerTest, NextRoundSizeClampedByRemaining) {
  PruneSchedule s;
  s.min_round = 16;
  s.initial_round = 64;
  s.max_round = 256;
  const RoundScheduler rounds(s);
  EXPECT_EQ(rounds.NextRoundSize(1000), 64u);
  EXPECT_EQ(rounds.NextRoundSize(10), 10u);
  EXPECT_EQ(rounds.NextRoundSize(0), 0u);
}

TEST(PruneScheduleTest, EnvPinsRoundSize) {
  ASSERT_EQ(setenv("RICD_ROUND_SIZE", "96", 1), 0);
  const PruneSchedule pinned = PruneSchedule::FromEnv();
  EXPECT_EQ(pinned.min_round, 96u);
  EXPECT_EQ(pinned.initial_round, 96u);
  EXPECT_EQ(pinned.max_round, 96u);

  ASSERT_EQ(setenv("RICD_ROUND_SIZE", "not-a-number", 1), 0);
  const PruneSchedule fallback = PruneSchedule::FromEnv();
  EXPECT_EQ(fallback.initial_round, PruneSchedule().initial_round);

  ASSERT_EQ(unsetenv("RICD_ROUND_SIZE"), 0);
  const PruneSchedule defaults = PruneSchedule::FromEnv();
  EXPECT_EQ(defaults.min_round, PruneSchedule().min_round);
  EXPECT_EQ(defaults.max_round, PruneSchedule().max_round);
}

TEST(PerWorkerBuffersTest, ConcatPreservesWorkerOrder) {
  engine::PerWorkerBuffers<uint32_t> buffers(3);
  buffers.ForWorker(2).push_back(30);
  buffers.ForWorker(0).push_back(10);
  buffers.ForWorker(0).push_back(11);
  buffers.ForWorker(1).push_back(20);
  EXPECT_EQ(buffers.TotalSize(), 4u);
  EXPECT_FALSE(buffers.Empty());

  std::vector<uint32_t> out{99};
  buffers.ConcatTo(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{99, 10, 11, 20, 30}));
}

TEST(PerWorkerBuffersTest, SortedToSortsOnlyAppendedSuffix) {
  engine::PerWorkerBuffers<uint32_t> buffers(2);
  buffers.ForWorker(0).push_back(7);
  buffers.ForWorker(0).push_back(2);
  buffers.ForWorker(1).push_back(5);

  std::vector<uint32_t> out{100};  // existing prefix stays put
  buffers.SortedTo(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{100, 2, 5, 7}));
}

TEST(PerWorkerBuffersTest, ClearEmptiesEveryBuffer) {
  engine::PerWorkerBuffers<uint32_t> buffers(2);
  buffers.ForWorker(0).push_back(1);
  buffers.ForWorker(1).push_back(2);
  buffers.Clear();
  EXPECT_TRUE(buffers.Empty());
  EXPECT_EQ(buffers.TotalSize(), 0u);
  std::vector<uint32_t> out;
  buffers.ConcatTo(&out);
  EXPECT_TRUE(out.empty());
}

TEST(PerWorkerBuffersTest, ZeroWorkersClampedToOne) {
  engine::PerWorkerBuffers<uint32_t> buffers(0);
  EXPECT_EQ(buffers.num_workers(), 1u);
}

}  // namespace
}  // namespace ricd::core
