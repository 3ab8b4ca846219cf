// Differential tests for the deterministic parallel pruning phases. Every
// witness-certified SquarePruning side pass must leave the view exactly as
// an independent reference does — the immediate-removal cascade of
// Algorithm 3, written here over the full adjacency — at every worker
// count, seed and parameter shape; frontier CorePruning must match the
// sequential fixpoint; and full extraction must be bit-identical across
// worker counts. Also unit-tests PerWorkerBuffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "check/diff_result.h"
#include "common/random.h"
#include "engine/worker_buffers.h"
#include "engine/worker_engine.h"
#include "graph/graph_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "ricd/identification.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

/// A schedule that expands CorePruning frontiers across workers even for
/// the small graphs tests can afford.
PruneSchedule ForcedParallelSchedule() {
  PruneSchedule s;
  s.frontier_cutoff = 0;
  return s;
}

/// Messy workload: three overlapping planted bicliques of different sizes,
/// a dense random block and background noise, so pruning has real cascades
/// to resolve (square removals re-triggering core removals across several
/// sweeps).
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
  // Dense block: 100 users clicking 6 random items from a 50-item pool, so
  // many users sit at the Lemma-2 threshold and rechecks flip verdicts.
  for (uint32_t u = 0; u < 100; ++u) {
    for (uint32_t d = 0; d < 6; ++d) {
      t.Append(20000 + u, 5000 + static_cast<table::ItemId>(rng.Uniform(50)),
               1);
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

/// Reference SquarePruning side pass: the reduce2Hop immediate-removal
/// cascade over the full adjacency, filtered through the view. Each
/// candidate is tested against the live view at its turn and removed at
/// once when fewer than k of its same-side vertices (itself included)
/// share ceil(alpha * k') active counterparts with it.
void ReferenceSquarePruneSide(graph::MutableView& view, Side side,
                              const RicdParams& params,
                              ExtractionStats* stats) {
  const graph::BipartiteGraph& g = view.graph();
  const Side other = graph::Other(side);
  const bool users = side == Side::kUser;
  const auto common_needed = static_cast<uint32_t>(
      std::ceil(params.alpha * (users ? params.k2 : params.k1)));
  const uint32_t neighbors_needed = users ? params.k1 : params.k2;

  std::vector<VertexId> order = view.ActiveVertices(side);
  std::vector<uint64_t> two_hop(g.num_vertices(side), 0);
  for (const VertexId x : order) {
    for (const VertexId w : g.Neighbors(side, x)) {
      if (view.IsActive(other, w)) two_hop[x] += view.ActiveDegree(other, w);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return two_hop[a] < two_hop[b];
  });

  std::vector<uint32_t> common(g.num_vertices(side));
  for (const VertexId x : order) {
    std::fill(common.begin(), common.end(), 0);
    for (const VertexId w : g.Neighbors(side, x)) {
      if (!view.IsActive(other, w)) continue;
      for (const VertexId y : g.Neighbors(other, w)) {
        if (view.IsActive(side, y)) ++common[y];
      }
    }
    const auto qualified = std::count_if(
        common.begin(), common.end(),
        [&](uint32_t c) { return c >= common_needed; });
    if (static_cast<uint32_t>(qualified) >= neighbors_needed) continue;
    view.Remove(side, x);
    ++(users ? stats->users_removed_square : stats->items_removed_square);
  }
}

/// Same active sets, and same active degrees of the active vertices.
/// (Degrees of INACTIVE vertices are unspecified in every schedule —
/// nothing may read them.)
::testing::AssertionResult SameViewState(const graph::MutableView& got,
                                         const graph::MutableView& want) {
  for (const Side side : {Side::kUser, Side::kItem}) {
    const char* name = side == Side::kUser ? "user " : "item ";
    for (VertexId x = 0; x < want.graph().num_vertices(side); ++x) {
      if (got.IsActive(side, x) != want.IsActive(side, x)) {
        return ::testing::AssertionFailure()
               << name << x << " active=" << got.IsActive(side, x)
               << ", want " << want.IsActive(side, x);
      }
      if (want.IsActive(side, x) &&
          got.ActiveDegree(side, x) != want.ActiveDegree(side, x)) {
        return ::testing::AssertionFailure()
               << name << x << " degree=" << got.ActiveDegree(side, x)
               << ", want " << want.ActiveDegree(side, x);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The removal counters the pruning steps update.
auto StatsFields(const ExtractionStats& s) {
  return std::make_tuple(s.users_removed_core, s.items_removed_core,
                         s.users_removed_square, s.items_removed_square);
}

/// Witness-skip and pass-start evaluation counters, read as deltas.
struct SkipCounters {
  obs::Counter* skips = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionWitnessSkips);
  obs::Counter* evaluations = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionScratchReuses);
  uint64_t skips_before = skips->Value();
  uint64_t evaluations_before = evaluations->Value();

  uint64_t Skips() const { return skips->Value() - skips_before; }
  uint64_t Evaluations() const {
    return evaluations->Value() - evaluations_before;
  }
};

/// Runs Extract's pruning steps — CorePruning, then per sweep each
/// SquarePruning side pass and CorePruning — on the production extractor
/// at `workers` and with the reference side passes, asserting the views
/// and stats agree after every step.
void ExpectEveryStepMatchesReference(const graph::BipartiteGraph& g,
                                     const RicdParams& params,
                                     size_t workers) {
  SCOPED_TRACE(testing::Message() << "workers=" << workers);
  engine::WorkerEngine engine(workers);
  const ExtensionBicliqueExtractor extractor(params, &engine,
                                             ForcedParallelSchedule());
  graph::MutableView got(g);
  graph::MutableView want(g);
  ExtractionStats got_stats;
  ExtractionStats want_stats;
  extractor.CorePruning(got, &got_stats);
  extractor.CorePruning(want, &want_stats);
  for (uint32_t sweep = 0; sweep < params.square_pruning_sweeps; ++sweep) {
    for (const Side side : {Side::kUser, Side::kItem}) {
      SCOPED_TRACE(testing::Message()
                   << "sweep=" << sweep
                   << (side == Side::kUser ? " users" : " items"));
      extractor.SquarePruneSide(got, side, /*ordered=*/true, &got_stats);
      ReferenceSquarePruneSide(want, side, params, &want_stats);
      ASSERT_TRUE(SameViewState(got, want));
      ASSERT_EQ(StatsFields(got_stats), StatsFields(want_stats));
    }
    extractor.CorePruning(got, &got_stats);
    extractor.CorePruning(want, &want_stats);
    ASSERT_TRUE(SameViewState(got, want));
    ASSERT_EQ(StatsFields(got_stats), StatsFields(want_stats));
  }
}

class ParallelExtractionTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, std::tuple<uint32_t, uint32_t, double>>> {
 protected:
  RicdParams Params() const {
    const auto [k1, k2, alpha] = std::get<1>(GetParam());
    return MakeParams(k1, k2, alpha);
  }
};

TEST_P(ParallelExtractionTest, EverySidePassMatchesReferenceCascade) {
  const auto g =
      graph::GraphBuilder::FromTable(MakeWorkload(std::get<0>(GetParam())))
          .value();
  const SkipCounters counters;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ExpectEveryStepMatchesReference(g, Params(), workers);
  }
  // The second sweep skips certified candidates, so the reference cascade
  // checks passes that contain skips.
  EXPECT_GT(counters.Skips(), 0u);
}

/// Full extraction (groups + stats + business-facing ranking) is
/// bit-identical at 1, 2, 4 and 8 workers.
TEST_P(ParallelExtractionTest, BitIdenticalAcrossWorkers) {
  const auto g =
      graph::GraphBuilder::FromTable(MakeWorkload(std::get<0>(GetParam())))
          .value();
  const RicdParams params = Params();

  engine::WorkerEngine one_worker(1);
  ExtractionStats ref_stats;
  auto ref =
      ExtensionBicliqueExtractor(params, &one_worker).Extract(g, &ref_stats);
  ASSERT_TRUE(ref.ok());
  const FrameworkResult want = AsResult(g, std::move(ref).value(), ref_stats);

  for (const size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
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

/// Workload whose user passes mix dense and sparse rows: 1,100 users in
/// communities of 10, each clicking 12-14 of 24 hot items (about 600 users
/// apiece, dense at ⌈n/64⌉ = 18 words) and 3 of its community's 5 cold
/// items (sparse). Two users share about 7 hot items, so at
/// ⌈αk2⌉ = 10 a same-community user qualifies mostly when its cold items
/// make up the difference: the test adds sparse counts to dense counts
/// whose top counter plane is set.
table::ClickTable MakeDenseWorkload(uint64_t seed) {
  table::ClickTable t;
  Rng rng(seed);
  constexpr uint32_t kHot = 24;
  for (uint32_t u = 0; u < 1100; ++u) {
    std::vector<table::ItemId> hot(kHot);
    std::iota(hot.begin(), hot.end(), table::ItemId{0});
    const uint32_t degree = 12 + static_cast<uint32_t>(rng.Uniform(3));
    for (uint32_t d = 0; d < degree; ++d) {
      std::swap(hot[d], hot[d + rng.Uniform(kHot - d)]);
      t.Append(u, hot[d], 1);
    }
    const table::ItemId cold = 1000 + 5 * (u / 10);
    const uint32_t skip = static_cast<uint32_t>(rng.Uniform(5));
    for (uint32_t d = 0; d < 5; ++d) {
      if (d != skip && d != (skip + 2) % 5) t.Append(u, cold + d, 1);
    }
  }
  t.ConsolidateDuplicates();
  return t;
}

/// The dense path against the reference cascade: ≥ 1,000 users, hot rows
/// of 18 words, candidates holding 12-14 dense rows beside 3 sparse ones.
TEST(DenseRowsTest, EverySidePassMatchesReferenceCascade) {
  for (const uint64_t seed : {5u, 17u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto g =
        graph::GraphBuilder::FromTable(MakeDenseWorkload(seed)).value();
    const RicdParams params = MakeParams(6, 10, 1.0);
    graph::MutableView cored(g);
    ExtensionBicliqueExtractor(params).CorePruning(cored, nullptr);
    ASSERT_GE(cored.NumActive(Side::kUser), 1000u);  // rows of >= 16 words
    obs::Counter* entries = obs::MetricsRegistry::Global().GetCounter(
        obs::metric_names::kRicdExtractionTwoHopEntries);
    obs::Counter* words = obs::MetricsRegistry::Global().GetCounter(
        obs::metric_names::kRicdExtractionDenseWords);
    const uint64_t entries_before = entries->Value();
    const uint64_t words_before = words->Value();
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ExpectEveryStepMatchesReference(g, params, workers);
    }
    EXPECT_GT(entries->Value() - entries_before, 0u);
    EXPECT_GT(words->Value() - words_before, 0u);
  }
}

/// Frontier CorePruning leaves the view in exactly the state the
/// one-worker cascade does.
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
      EXPECT_TRUE(SameViewState(view, seq_view));
    }
  }
}

/// Builds a graph from (user, items) click lists, one click per pair.
graph::BipartiteGraph FromClickLists(
    const std::vector<std::pair<table::UserId, std::vector<table::ItemId>>>&
        clicks) {
  table::ClickTable t;
  for (const auto& [user, items] : clicks) {
    for (const table::ItemId item : items) t.Append(user, item, 1);
  }
  t.ConsolidateDuplicates();
  return graph::GraphBuilder::FromTable(t).value();
}

/// Serial and parallel recheck counters, read as deltas.
struct RecheckCounters {
  obs::Counter* serial = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionRoundRechecks);
  obs::Counter* parallel = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionParallelRechecks);
  uint64_t serial_before = serial->Value();
  uint64_t parallel_before = parallel->Value();

  uint64_t Serial() const { return serial->Value() - serial_before; }
  uint64_t Parallel() const { return parallel->Value() - parallel_before; }
};

/// Runs one user side pass over `clicks` (alpha 0.5, k1 = k2 = 4: a user
/// needs 4 users, itself included, sharing >= 2 items with it; core pruning
/// removes nothing) at 1, 4 and 8 workers against the reference, then
/// `check(graph, view, rechecks)` on each, then every step of two sweeps.
/// Every row of these small graphs is dense (n <= 64, so ⌈n/64⌉ = 1), so
/// witnesses are picked as x itself, then the qualifiers the walk visits
/// after x, then earlier ones, each in ascending local id.
template <typename Check>
void ExpectUserPassMatchesReference(
    const std::vector<std::pair<table::UserId, std::vector<table::ItemId>>>&
        clicks,
    const Check& check) {
  const auto g = FromClickLists(clicks);
  const RicdParams params = MakeParams(4, 4, 0.5);
  for (const size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    const ExtensionBicliqueExtractor extractor(params, &engine);
    graph::MutableView got(g);
    graph::MutableView want(g);
    extractor.CorePruning(got, nullptr);
    ASSERT_EQ(got.NumActive(Side::kUser), clicks.size());

    const RecheckCounters rechecks;
    ExtractionStats got_stats;
    ExtractionStats want_stats;
    extractor.SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, params, &want_stats);
    check(g, got, rechecks);
    EXPECT_TRUE(SameViewState(got, want));
    EXPECT_EQ(StatsFields(got_stats), StatsFields(want_stats));

    ExpectEveryStepMatchesReference(g, params, workers);
  }
}

bool IsActiveUser(const graph::BipartiteGraph& g,
                  const graph::MutableView& view, table::UserId user) {
  VertexId v = 0;
  EXPECT_TRUE(g.LookupUser(user, &v));
  return view.IsActive(Side::kUser, v);
}

/// A chain of dead witnesses that the parallel re-evaluation cannot see to
/// its end, so the commit walk rechecks serially:
///
///   Z {1,2}          qualifiers Z, Y               FAIL
///   Y {1,2,3,4}      qualifiers Y, Z, R, K         PASS, leans on Z
///   R {3,4,7,8}      qualifiers R, Y, K, S         PASS, leans on Y
///   K {3,4,11,12}    qualifiers K, Y, R, V1..V3    PASS, leans on Y and R
///   S {7,8,9,10}     qualifiers S, R, U1..U3       PASS, leans on R
///   U1..U3 {9,10}    qualifiers U1..U3, S          PASS
///   V1..V3 {11,12}   qualifiers V1..V3, K          PASS
///
/// The reduce2Hop order is Z (two-hop size 4), U1..U3, V1..V3 (8), Y, R
/// (10), S (12), K (14). Y leans on Z, a pass-start FAIL placed before it,
/// so Y is re-evaluated in parallel with Z dead and fails. R, S and K lean
/// only on pass-start PASSes, so the walk rechecks them serially once Y (and
/// then R) is gone: R's recheck finds R, K and S and removes it; S's finds
/// S and U1..U3 and keeps it; K's finds K and V1..V3 and keeps it.
TEST(WitnessRecheckTest, DeadWitnessesTriggerRechecksThatKeepAndRemove) {
  enum : table::UserId { kZ = 1, kY, kR, kK, kS, kU1, kU2, kU3, kV1, kV2, kV3 };
  const std::vector<std::pair<table::UserId, std::vector<table::ItemId>>>
      clicks = {{kZ, {1, 2}},          {kY, {1, 2, 3, 4}},
                {kR, {3, 4, 7, 8}},    {kK, {3, 4, 11, 12}},
                {kS, {7, 8, 9, 10}},   {kU1, {9, 10}},
                {kU2, {9, 10}},        {kU3, {9, 10}},
                {kV1, {11, 12}},       {kV2, {11, 12}},
                {kV3, {11, 12}}};
  ExpectUserPassMatchesReference(
      clicks, [](const graph::BipartiteGraph& g, const graph::MutableView& got,
                 const RecheckCounters& rechecks) {
        EXPECT_EQ(rechecks.Parallel(), 1u);  // Y
        EXPECT_GE(rechecks.Serial(), 2u);
        EXPECT_FALSE(IsActiveUser(g, got, kY));  // parallel recheck removes
        EXPECT_FALSE(IsActiveUser(g, got, kR));  // serial recheck removes
        EXPECT_TRUE(IsActiveUser(g, got, kS));   // serial recheck keeps
        EXPECT_TRUE(IsActiveUser(g, got, kK));   // serial recheck keeps
      });
}

/// Witnesses that are pass-start FAILs placed earlier in the walk, resolved
/// by the parallel re-evaluation before the commit walk:
///
///   D {1,2,3,4}    qualifiers D, A, B          FAIL
///   A {1,2,5,6}    qualifiers A, D, E, F, G    PASS, witnesses A, D, E, F
///   B {3,4,7,8}    qualifiers B, D, H, I       PASS, witnesses B, D, H, I
///   E, F, G {5,6}  qualifiers A, E, F, G       PASS
///   H, I {7,8}     qualifiers B, H, I          FAIL
///
/// The reduce2Hop order is H, I (two-hop size 6), D, E, F, G (8), B (10),
/// A (12). A and B are re-evaluated with D, H and I dead: B finds only B
/// and fails; A finds A, E, F and G and passes with them, so the walk
/// rechecks nothing.
TEST(WitnessRecheckTest, PassStartFailWitnessesAreRecheckedInParallel) {
  enum : table::UserId { kD = 1, kA, kB, kE, kF, kG, kH, kI };
  const std::vector<std::pair<table::UserId, std::vector<table::ItemId>>>
      clicks = {{kD, {1, 2, 3, 4}}, {kA, {1, 2, 5, 6}}, {kB, {3, 4, 7, 8}},
                {kE, {5, 6}},       {kF, {5, 6}},       {kG, {5, 6}},
                {kH, {7, 8}},       {kI, {7, 8}}};
  ExpectUserPassMatchesReference(
      clicks, [](const graph::BipartiteGraph& g, const graph::MutableView& got,
                 const RecheckCounters& rechecks) {
        EXPECT_EQ(rechecks.Parallel(), 2u);  // A and B
        EXPECT_EQ(rechecks.Serial(), 0u);
        EXPECT_TRUE(IsActiveUser(g, got, kA));   // re-evaluation keeps
        EXPECT_FALSE(IsActiveUser(g, got, kB));  // re-evaluation removes
      });
}

/// Cross-sweep certificates. With alpha 0.5 and k1 = k2 = 4, a user needs
/// 4 users, itself included, sharing >= 2 items with it:
///
///   Q1..Q4 {5,6}   S1..S4 {1,2}   P1..P4 {3,4}
///
/// The first user pass certifies all twelve. Between passes item 4 goes
/// (P loses a counterpart) and Q4 goes (Q1..Q3 lose a witness). The second
/// pass skips S1..S4 and evaluates P1..P4 and Q1..Q3 again, which all fail
/// now. Q4 sorts before S1, so a skip that ignored the dead witness would
/// point at a live user.
TEST(WitnessSkipTest, CertifiedCandidatesSkipOnlyWhileDegreeAndWitnessesHold) {
  enum : table::UserId { kQ1 = 1, kQ2, kQ3, kQ4, kS1, kS2, kS3, kS4, kP1 };
  std::vector<std::pair<table::UserId, std::vector<table::ItemId>>> clicks;
  for (table::UserId q = kQ1; q <= kQ4; ++q) clicks.push_back({q, {5, 6}});
  for (table::UserId s = kS1; s <= kS4; ++s) clicks.push_back({s, {1, 2}});
  for (table::UserId p = kP1; p < kP1 + 4; ++p) clicks.push_back({p, {3, 4}});
  const auto g = FromClickLists(clicks);
  const RicdParams params = MakeParams(4, 4, 0.5);
  VertexId item4 = 0;
  VertexId q4 = 0;
  ASSERT_TRUE(g.LookupItem(4, &item4));
  ASSERT_TRUE(g.LookupUser(kQ4, &q4));

  for (const size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    const ExtensionBicliqueExtractor extractor(params, &engine);
    graph::MutableView got(g);
    graph::MutableView want(g);
    ExtractionStats got_stats;
    ExtractionStats want_stats;

    const SkipCounters first;
    extractor.SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, params, &want_stats);
    EXPECT_EQ(first.Skips(), 0u);
    EXPECT_EQ(first.Evaluations(), clicks.size());
    EXPECT_EQ(got.Certificates(Side::kUser).vertices.size(), clicks.size());
    ASSERT_TRUE(SameViewState(got, want));

    for (graph::MutableView* view : {&got, &want}) {
      view->Remove(Side::kItem, item4);
      view->Remove(Side::kUser, q4);
    }
    const SkipCounters second;
    extractor.SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, params, &want_stats);
    EXPECT_EQ(second.Skips(), 4u);        // S1..S4
    EXPECT_EQ(second.Evaluations(), 7u);  // P1..P4, Q1..Q3
    EXPECT_TRUE(SameViewState(got, want));
    EXPECT_EQ(StatsFields(got_stats), StatsFields(want_stats));
    EXPECT_EQ(got.NumActive(Side::kUser), 4u);
  }
}

/// Reset() drops the certificates: after it, a certified vertex can have
/// its certified active degree over a different neighbour set. X clicks
/// {1,2,3}, W1..W4 click {1,2,4} (alpha 0.5, k1 = k2 = 4). With item 3
/// removed, the user pass certifies X at degree 2 on {1,2} with W
/// witnesses. After Reset() and removing item 2, X again has degree 2, now
/// on {1,3}, shares one item with each W and fails; the W users still
/// share {1,4} and pass.
TEST(WitnessSkipTest, ResetDropsCertificates) {
  enum : table::UserId { kX = 1, kW1, kW2, kW3, kW4 };
  std::vector<std::pair<table::UserId, std::vector<table::ItemId>>> clicks = {
      {kX, {1, 2, 3}}};
  for (table::UserId w = kW1; w <= kW4; ++w) clicks.push_back({w, {1, 2, 4}});
  const auto g = FromClickLists(clicks);
  const RicdParams params = MakeParams(4, 4, 0.5);
  VertexId item2 = 0;
  VertexId item3 = 0;
  VertexId x = 0;
  ASSERT_TRUE(g.LookupItem(2, &item2));
  ASSERT_TRUE(g.LookupItem(3, &item3));
  ASSERT_TRUE(g.LookupUser(kX, &x));

  for (const size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    const ExtensionBicliqueExtractor extractor(params, &engine);
    graph::MutableView got(g);
    graph::MutableView want(g);
    ExtractionStats got_stats;
    ExtractionStats want_stats;

    got.Remove(Side::kItem, item3);
    want.Remove(Side::kItem, item3);
    extractor.SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, params, &want_stats);
    ASSERT_TRUE(SameViewState(got, want));
    ASSERT_TRUE(got.IsActive(Side::kUser, x));
    ASSERT_EQ(got.ActiveDegree(Side::kUser, x), 2u);

    for (graph::MutableView* view : {&got, &want}) {
      view->Reset();
      view->Remove(Side::kItem, item2);
    }
    EXPECT_TRUE(got.Certificates(Side::kUser).vertices.empty());
    ASSERT_EQ(got.ActiveDegree(Side::kUser, x), 2u);
    const SkipCounters after_reset;
    extractor.SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, params, &want_stats);
    EXPECT_EQ(after_reset.Skips(), 0u);
    EXPECT_FALSE(got.IsActive(Side::kUser, x));
    EXPECT_EQ(got.NumActive(Side::kUser), 4u);
    EXPECT_TRUE(SameViewState(got, want));
    EXPECT_EQ(StatsFields(got_stats), StatsFields(want_stats));
  }
}

/// A certificate serves only the thresholds it was made for. On the graph
/// of ResetDropsCertificates, a pass at k2 = 4 certifies every user (two
/// common items). At k2 = 6 the next pass needs three: X shares only two
/// with each W and must be evaluated and removed although its degree and
/// witnesses held.
TEST(WitnessSkipTest, CertificatesServeOnlyTheirThresholds) {
  enum : table::UserId { kX = 1, kW1, kW2, kW3, kW4 };
  std::vector<std::pair<table::UserId, std::vector<table::ItemId>>> clicks = {
      {kX, {1, 2, 3}}};
  for (table::UserId w = kW1; w <= kW4; ++w) clicks.push_back({w, {1, 2, 4}});
  const auto g = FromClickLists(clicks);
  const RicdParams certify = MakeParams(4, 4, 0.5);
  const RicdParams stricter = MakeParams(4, 6, 0.5);
  VertexId x = 0;
  ASSERT_TRUE(g.LookupUser(kX, &x));

  for (const size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    engine::WorkerEngine engine(workers);
    graph::MutableView got(g);
    graph::MutableView want(g);
    ExtractionStats got_stats;
    ExtractionStats want_stats;

    ExtensionBicliqueExtractor(certify, &engine)
        .SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, certify, &want_stats);
    ASSERT_EQ(got.Certificates(Side::kUser).vertices.size(), clicks.size());

    const SkipCounters counters;
    ExtensionBicliqueExtractor(stricter, &engine)
        .SquarePruneSide(got, Side::kUser, /*ordered=*/true, &got_stats);
    ReferenceSquarePruneSide(want, Side::kUser, stricter, &want_stats);
    EXPECT_EQ(counters.Skips(), 0u);
    EXPECT_FALSE(got.IsActive(Side::kUser, x));
    EXPECT_TRUE(SameViewState(got, want));
    EXPECT_EQ(StatsFields(got_stats), StatsFields(want_stats));
  }
}

TEST(PerWorkerBuffersTest, ConcatPreservesWorkerOrder) {
  engine::PerWorkerBuffers<uint32_t> buffers(3);
  buffers.ForWorker(2).push_back(30);
  buffers.ForWorker(0).push_back(10);
  buffers.ForWorker(0).push_back(11);
  buffers.ForWorker(1).push_back(20);
  EXPECT_EQ(buffers.TotalSize(), 4u);

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

TEST(PerWorkerBuffersTest, ZeroWorkersClampedToOne) {
  engine::PerWorkerBuffers<uint32_t> buffers(0);
  EXPECT_EQ(buffers.num_workers(), 1u);
}

}  // namespace
}  // namespace ricd::core
