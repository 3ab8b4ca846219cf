// Tests of the src/check invariant validators. The core pattern: build a
// well-formed graph, corrupt it in exactly one way through GraphTestPeer,
// and assert the validator rejects it with the expected `validate.<area>:
// <tag>:` Status — each corruption maps to a distinct failure. The result
// and published-snapshot diff oracles get the same treatment: one changed
// field of a real pipeline result (or its snapshot) per divergence kind.

#include "check/validate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/diff_result.h"
#include "check/validate_serve.h"
#include "common/status.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "graph_test_peer.h"
#include "obs/metrics.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "serve/verdict_store.h"
#include "table/click_table.h"

namespace ricd {
namespace {

using core::FrameworkResult;
using graph::BipartiteGraph;
using graph::GraphArrays;
using graph::GraphTestPeer;
using graph::Group;
using graph::MutableView;
using graph::Side;
using graph::VertexId;

/// External ids are offset so dense and external id spaces never coincide
/// by accident.
constexpr table::UserId kUserBase = 1000;
constexpr table::ItemId kItemBase = 2000;

/// A small well-formed graph: a 3x3 biclique (users 0..2, items 0..2, two
/// clicks per edge except (0,1) with five — distinct weights exercise the
/// transpose check) plus a background user 3 clicking item 3 once.
BipartiteGraph MakeGraph() {
  table::ClickTable t;
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 3; ++i) {
      const table::ClickCount clicks = (u == 0 && i == 1) ? 5 : 2;
      t.Append(kUserBase + u, kItemBase + i, clicks);
    }
  }
  t.Append(kUserBase + 3, kItemBase + 3, 1);
  auto graph = graph::GraphBuilder::FromTable(t);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

void ExpectRejected(const Status& status, StatusCode code,
                    const std::string& tag) {
  ASSERT_FALSE(status.ok()) << "expected rejection with tag " << tag;
  EXPECT_EQ(status.code(), code) << status;
  EXPECT_NE(status.message().find(tag), std::string::npos) << status;
}

TEST(ValidationGateTest, OverrideWins) {
  check::SetValidationEnabled(true);
  EXPECT_TRUE(check::ValidationEnabled());
  check::SetValidationEnabled(false);
  EXPECT_FALSE(check::ValidationEnabled());
  check::SetValidationEnabled(true);  // Leave on for the rest of the binary.
}

TEST(ValidateGraphTest, WellFormedGraphPasses) {
  const BipartiteGraph g = MakeGraph();
  EXPECT_TRUE(check::ValidateBipartiteGraph(g).ok());
}

TEST(ValidateGraphTest, ViolationsAreCounted) {
  obs::Counter* violations =
      obs::MetricsRegistry::Global().GetCounter("check.violations");
  const uint64_t before = violations->Value();
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.total_clicks += 3; });
  ASSERT_FALSE(check::ValidateBipartiteGraph(g).ok());
  EXPECT_EQ(violations->Value(), before + 1);
}

TEST(ValidateGraphTest, RejectsNonMonotoneOffsets) {
  const BipartiteGraph g =
      GraphTestPeer::Corrupted(MakeGraph(), [](GraphArrays& a) {
        a.user_offsets[1] = a.user_offsets.back();
      });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "offsets-not-monotone");
}

TEST(ValidateGraphTest, RejectsTerminalOffsetMismatch) {
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.user_offsets.back() -= 1; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "offsets-terminal-mismatch");
}

TEST(ValidateGraphTest, RejectsDanglingNeighbor) {
  const BipartiteGraph g =
      GraphTestPeer::Corrupted(MakeGraph(), [](GraphArrays& a) {
        a.user_adj[0] = static_cast<VertexId>(a.item_ids.size()) + 7;
      });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "neighbor-out-of-range");
}

TEST(ValidateGraphTest, RejectsDuplicateAdjacency) {
  // User 0 has three item neighbors; make the second repeat the first.
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.user_adj[1] = a.user_adj[0]; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "adjacency-duplicate");
}

TEST(ValidateGraphTest, RejectsUnsortedAdjacency) {
  const BipartiteGraph g =
      GraphTestPeer::Corrupted(MakeGraph(), [](GraphArrays& a) {
        std::swap(a.user_adj[0], a.user_adj[1]);
      });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "adjacency-unsorted");
}

TEST(ValidateGraphTest, RejectsZeroMultiplicityEdge) {
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.user_clicks[0] = 0; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "zero-multiplicity");
}

TEST(ValidateGraphTest, RejectsPerVertexTotalMismatch) {
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.user_total_clicks[0] += 5; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "total-clicks-mismatch");
}

TEST(ValidateGraphTest, RejectsTransposeWeightDisagreement) {
  // User 0's first two edges carry different weights (2 and 5); swapping
  // them keeps the user-side CSR self-consistent (same sum) but the
  // item-side copies of those edges now disagree.
  const BipartiteGraph g =
      GraphTestPeer::Corrupted(MakeGraph(), [](GraphArrays& a) {
        std::swap(a.user_clicks[0], a.user_clicks[1]);
      });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "transpose-mismatch");
}

TEST(ValidateGraphTest, RejectsGlobalClickMismatch) {
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.total_clicks += 3; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "global-clicks-mismatch");
}

TEST(ValidateGraphTest, RejectsBrokenExternalIdLookup) {
  // The id map is derived from the id section, so give user 1 user 0's
  // external id: the map resolves it to user 0, and user 1 no longer
  // round-trips.
  const BipartiteGraph g = GraphTestPeer::Corrupted(
      MakeGraph(), [](GraphArrays& a) { a.user_ids[1] = a.user_ids[0]; });
  ExpectRejected(check::ValidateBipartiteGraph(g), StatusCode::kCorruption,
                 "lookup-mismatch");
}

class ValidateBicliqueTest : public ::testing::Test {
 protected:
  ValidateBicliqueTest() : graph_(MakeGraph()) {
    params_.k1 = 3;
    params_.k2 = 3;
    params_.alpha = 1.0;
    biclique_.users = {0, 1, 2};
    biclique_.items = {0, 1, 2};
  }

  BipartiteGraph graph_;
  core::RicdParams params_;
  Group biclique_;
};

TEST_F(ValidateBicliqueTest, AcceptsTrueBiclique) {
  EXPECT_TRUE(
      check::ValidateExtensionBiclique(graph_, biclique_, params_).ok());
}

TEST_F(ValidateBicliqueTest, RejectsTooFewUsers) {
  biclique_.users = {0, 1};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "group-too-few-users");
}

TEST_F(ValidateBicliqueTest, RejectsTooFewItems) {
  biclique_.items = {0, 1};
  params_.k1 = 2;  // Keep the user-count gate out of the way.
  biclique_.users = {0, 1};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "group-too-few-items");
}

TEST_F(ValidateBicliqueTest, RejectsOutOfRangeMember) {
  biclique_.users = {0, 1, graph_.num_users() + 4};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "group-member-out-of-range");
}

TEST_F(ValidateBicliqueTest, RejectsDuplicateMember) {
  biclique_.users = {0, 1, 1};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "group-member-unsorted-or-duplicate");
}

TEST_F(ValidateBicliqueTest, RejectsUserMissingAlphaFraction) {
  // User 3 clicked none of the group's items; with alpha = 1 it owes all 3.
  biclique_.users = {0, 1, 3};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "alpha-user-degree");
}

TEST_F(ValidateBicliqueTest, RejectsItemMissingAlphaFraction) {
  // Users 0..2 click all of items 0..2, so with alpha = 0.6 and k2 = 4 each
  // user owes ceil(2.4) = 3 in-group clicks — satisfied. Item 3 is clicked
  // by no group user, so the item side (ceil(0.6 * 3) = 2) fails.
  params_.alpha = 0.6;
  params_.k2 = 4;
  biclique_.items = {0, 1, 2, 3};
  ExpectRejected(check::ValidateExtensionBiclique(graph_, biclique_, params_),
                 StatusCode::kInternal, "alpha-item-degree");
}

TEST(ValidateViewTest, AcceptsConsistentViewThroughRemovals) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  EXPECT_TRUE(check::ValidateMutableView(view).ok());
  view.Remove(Side::kUser, 0);
  view.Remove(Side::kItem, 2);
  view.Remove(Side::kItem, 2);  // No-op second removal.
  EXPECT_TRUE(check::ValidateMutableView(view).ok());
  view.Reset();
  EXPECT_TRUE(check::ValidateMutableView(view).ok());
}

TEST(ValidateViewTest, RejectsStaleCachedDegree) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  GraphTestPeer::UserDegrees(view)[0] += 1;
  ExpectRejected(check::ValidateMutableView(view), StatusCode::kInternal,
                 "view-degree-mismatch");
}

TEST(ValidateViewTest, RejectsWrongActiveCount) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  GraphTestPeer::NumActiveUsers(view) -= 1;
  ExpectRejected(check::ValidateMutableView(view), StatusCode::kInternal,
                 "view-active-count-mismatch");
}

/// A certificate for user 0 of MakeGraph() at its full degree 3: witnesses
/// users 1 and 2 share all three items with it.
graph::WitnessCertificates UserZeroCertificate() {
  graph::WitnessCertificates certs;
  certs.common_needed = 3;
  certs.per_vertex = 2;
  certs.vertices = {0};
  certs.degrees = {3};
  certs.witnesses = {1, 2};
  return certs;
}

TEST(ValidateCertificatesTest, AcceptsTrueAndStaleCertificates) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  EXPECT_TRUE(check::ValidateWitnessCertificates(view).ok());
  view.SetCertificates(Side::kUser, UserZeroCertificate());
  EXPECT_TRUE(check::ValidateWitnessCertificates(view).ok());
  // Once item 0 goes, user 0's degree no longer matches and user 1 would
  // share only two items: the certificate is stale, not false, because
  // the next pass evaluates user 0 instead of skipping it.
  view.Remove(Side::kItem, 0);
  EXPECT_TRUE(check::ValidateWitnessCertificates(view).ok());
}

TEST(ValidateCertificatesTest, AcceptsCertificatesSquarePruningLeaves) {
  const BipartiteGraph g = MakeGraph();
  core::RicdParams params;
  params.k1 = 3;
  params.k2 = 3;
  params.alpha = 1.0;
  const core::ExtensionBicliqueExtractor extractor(params);
  MutableView view(g);
  extractor.CorePruning(view, nullptr);
  extractor.SquarePruning(view, /*ordered=*/true, nullptr);
  EXPECT_EQ(view.Certificates(Side::kUser).vertices.size(), 3u);
  EXPECT_TRUE(check::ValidateWitnessCertificates(view).ok());
}

TEST(ValidateCertificatesTest, RejectsWitnessBelowThreshold) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  graph::WitnessCertificates certs = UserZeroCertificate();
  certs.witnesses = {1, 3};  // user 3 shares no item with user 0
  view.SetCertificates(Side::kUser, certs);
  ExpectRejected(check::ValidateWitnessCertificates(view),
                 StatusCode::kInternal, "witness-below-threshold");
}

TEST(ValidateCertificatesTest, RejectsMalformedCertificates) {
  const BipartiteGraph g = MakeGraph();
  MutableView view(g);
  graph::WitnessCertificates short_witnesses = UserZeroCertificate();
  short_witnesses.witnesses.pop_back();
  view.SetCertificates(Side::kUser, short_witnesses);
  ExpectRejected(check::ValidateWitnessCertificates(view),
                 StatusCode::kInternal, "certificate-malformed");

  graph::WitnessCertificates dangling = UserZeroCertificate();
  dangling.witnesses = {1, g.num_users()};
  view.SetCertificates(Side::kUser, dangling);
  ExpectRejected(check::ValidateWitnessCertificates(view),
                 StatusCode::kInternal, "certificate-malformed");
}

class ValidateResultTest : public ::testing::Test {
 protected:
  ValidateResultTest() : graph_(MakeGraph()) {
    Group group;
    group.users = {0, 1, 2};
    group.items = {0, 1, 2};
    groups_.push_back(std::move(group));
  }

  BipartiteGraph graph_;
  std::vector<Group> groups_;
};

TEST_F(ValidateResultTest, AcceptsCleanGroups) {
  EXPECT_TRUE(check::ValidatePipelineResult(graph_, groups_, nullptr).ok());
}

TEST_F(ValidateResultTest, RejectsEmptyGroup) {
  groups_.emplace_back();
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, nullptr),
                 StatusCode::kInternal, "result-empty-group");
}

TEST_F(ValidateResultTest, RejectsOutOfRangeUser) {
  groups_[0].users.push_back(graph_.num_users() + 1);
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, nullptr),
                 StatusCode::kInternal, "result-user-out-of-range");
}

TEST_F(ValidateResultTest, RejectsDuplicateUserWithinGroup) {
  groups_[0].users.push_back(0);
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, nullptr),
                 StatusCode::kInternal, "result-duplicate-user");
}

TEST_F(ValidateResultTest, RejectsDuplicateItemWithinGroup) {
  groups_[0].items.push_back(2);
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, nullptr),
                 StatusCode::kInternal, "result-duplicate-item");
}

TEST_F(ValidateResultTest, AcceptsWellFormedRanking) {
  core::RankedOutput ranked;
  ranked.users.push_back({0, graph_.ExternalUserId(0), 3.0});
  ranked.users.push_back({1, graph_.ExternalUserId(1), 1.0});
  ranked.items.push_back({2, graph_.ExternalItemId(2), 2.0});
  EXPECT_TRUE(check::ValidatePipelineResult(graph_, groups_, &ranked).ok());
}

TEST_F(ValidateResultTest, RejectsUnsortedRanking) {
  core::RankedOutput ranked;
  ranked.users.push_back({0, graph_.ExternalUserId(0), 1.0});
  ranked.users.push_back({1, graph_.ExternalUserId(1), 3.0});
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, &ranked),
                 StatusCode::kInternal, "ranked-not-sorted");
}

TEST_F(ValidateResultTest, RejectsDuplicateRankedUser) {
  core::RankedOutput ranked;
  ranked.users.push_back({0, graph_.ExternalUserId(0), 3.0});
  ranked.users.push_back({0, graph_.ExternalUserId(0), 3.0});
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, &ranked),
                 StatusCode::kInternal, "ranked-duplicate");
}

TEST_F(ValidateResultTest, RejectsRankedExternalIdMismatch) {
  core::RankedOutput ranked;
  ranked.users.push_back({0, graph_.ExternalUserId(1), 3.0});
  ExpectRejected(check::ValidatePipelineResult(graph_, groups_, &ranked),
                 StatusCode::kInternal, "ranked-external-id-mismatch");
}

/// A real pipeline result over the tiny scenario, computed once.
const FrameworkResult& TinyPipelineResult() {
  static const FrameworkResult result = [] {
    auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 2024);
    EXPECT_TRUE(scenario.ok()) << scenario.status();
    core::FrameworkOptions options;
    options.params.k1 = 6;
    options.params.k2 = 6;
    options.params.t_hot = 800;
    auto run = core::RicdFramework(options).Run(scenario->table);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).value();
  }();
  return result;
}

/// One divergence kind: `mutate` changes a single field of a copy of the
/// result, and the oracle's message must contain `names`.
struct DiffCase {
  const char* name;
  void (*mutate)(FrameworkResult*);
  const char* names;
};

class DiffPipelineResultTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DiffPipelineResultTest, MessageNamesTheDivergentField) {
  const FrameworkResult& want = TinyPipelineResult();
  ASSERT_TRUE(!want.detection.groups.empty() && want.ranked.users.size() > 1 &&
              want.ranked.items.size() > 1);
  const Status same = check::DiffPipelineResult(want, want);
  EXPECT_TRUE(same.ok()) << same;
  FrameworkResult got = want;
  GetParam().mutate(&got);
  ExpectRejected(check::DiffPipelineResult(want, got), StatusCode::kInternal,
                 GetParam().names);
}

INSTANTIATE_TEST_SUITE_P(
    OneFieldEach, DiffPipelineResultTest,
    ::testing::Values(
        DiffCase{"GroupMember",
                 [](FrameworkResult* r) { r->detection.groups[0].items[0]++; },
                 "groups: group 0 items[0]"},
        DiffCase{"GroupCount",
                 [](FrameworkResult* r) { r->detection.groups.pop_back(); },
                 "groups: count"},
        DiffCase{"RankDenseId",
                 [](FrameworkResult* r) { r->ranked.users[1].user++; },
                 "ranked-users: rank 1 user"},
        DiffCase{"RankExternalId",
                 [](FrameworkResult* r) { r->ranked.items[1].external_id++; },
                 "ranked-items: rank 1 external_id"},
        DiffCase{"RankRisk",
                 [](FrameworkResult* r) {
                   double& risk = r->ranked.items[0].risk;
                   risk = std::nextafter(risk, HUGE_VAL);  // one ulp up
                 },
                 "ranked-items: rank 0 risk"},
        DiffCase{"RankRows",
                 [](FrameworkResult* r) { r->ranked.users.pop_back(); },
                 "ranked-users: rows"},
        DiffCase{"EffectiveParam",
                 [](FrameworkResult* r) { r->effective_params.alpha -= 0.1; },
                 "effective-params: alpha"},
        DiffCase{"FeedbackRounds",
                 [](FrameworkResult* r) { r->feedback_rounds_used++; },
                 "feedback-rounds: feedback_rounds_used"},
        DiffCase{"ExtractionStat",
                 [](FrameworkResult* r) { r->extraction_stats.sweeps_run++; },
                 "extraction-stats: sweeps_run"},
        DiffCase{"ScreeningStat",
                 [](FrameworkResult* r) { r->screening_stats.items_removed++; },
                 "screening-stats: items_removed"}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.name);
    });

/// A tiny pipeline run with its input table and the snapshot a publish of
/// it holds: flags sorted by id with their risks, and the table rows whose
/// endpoints are both flagged as blocked pairs.
struct PublishedRun {
  table::ClickTable table;
  FrameworkResult result;
  serve::VerdictSnapshot snapshot;
};

const PublishedRun& TinyPublishedRun() {
  static const PublishedRun* run = [] {
    auto* out = new PublishedRun;
    auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 2024);
    EXPECT_TRUE(scenario.ok()) << scenario.status();
    out->table = scenario->table;
    out->table.ConsolidateDuplicates();
    out->result = TinyPipelineResult();
    serve::VerdictSnapshot& snap = out->snapshot;
    std::vector<std::pair<table::UserId, double>> users;
    for (const auto& u : out->result.ranked.users) {
      users.emplace_back(u.external_id, u.risk);
    }
    std::sort(users.begin(), users.end());
    for (const auto& [id, risk] : users) {
      snap.flagged_users.push_back(id);
      snap.user_risks.push_back(risk);
    }
    std::vector<std::pair<table::ItemId, double>> items;
    for (const auto& v : out->result.ranked.items) {
      items.emplace_back(v.external_id, v.risk);
    }
    std::sort(items.begin(), items.end());
    for (const auto& [id, risk] : items) {
      snap.flagged_items.push_back(id);
      snap.item_risks.push_back(risk);
    }
    for (size_t i = 0; i < out->table.num_rows(); ++i) {
      if (snap.FlaggedUser(out->table.user(i)) &&
          snap.FlaggedItem(out->table.item(i))) {
        snap.blocked_pairs.emplace_back(out->table.user(i),
                                        out->table.item(i));
      }
    }
    return out;
  }();
  return *run;
}

/// One divergence kind of a published snapshot.
struct VerdictDiffCase {
  const char* name;
  void (*mutate)(serve::VerdictSnapshot*);
  const char* names;
};

class DiffVerdictSnapshotTest
    : public ::testing::TestWithParam<VerdictDiffCase> {};

TEST_P(DiffVerdictSnapshotTest, MessageNamesTheDivergentField) {
  const PublishedRun& run = TinyPublishedRun();
  ASSERT_TRUE(run.snapshot.flagged_users.size() > 1 &&
              run.snapshot.flagged_items.size() > 1 &&
              run.snapshot.blocked_pairs.size() > 1);
  const Status same =
      check::DiffVerdictSnapshot(run.result, run.table, run.snapshot);
  EXPECT_TRUE(same.ok()) << same;
  serve::VerdictSnapshot got = run.snapshot;
  GetParam().mutate(&got);
  ExpectRejected(check::DiffVerdictSnapshot(run.result, run.table, got),
                 StatusCode::kInternal, GetParam().names);
}

INSTANTIATE_TEST_SUITE_P(
    OneFieldEach, DiffVerdictSnapshotTest,
    ::testing::Values(
        VerdictDiffCase{"UserRows",
                        [](serve::VerdictSnapshot* s) {
                          s->flagged_users.pop_back();
                          s->user_risks.pop_back();
                        },
                        "verdict-users: rows"},
        VerdictDiffCase{"UserRisk",
                        [](serve::VerdictSnapshot* s) {
                          double& risk = s->user_risks[1];
                          risk = std::nextafter(risk, HUGE_VAL);
                        },
                        "verdict-users: row 1 risk"},
        VerdictDiffCase{"ItemId",
                        [](serve::VerdictSnapshot* s) {
                          s->flagged_items[0]--;
                        },
                        "verdict-items: row 0 id"},
        VerdictDiffCase{"ItemRiskRows",
                        [](serve::VerdictSnapshot* s) {
                          s->item_risks.pop_back();
                        },
                        "verdict-items: risk rows"},
        VerdictDiffCase{"PairItem",
                        [](serve::VerdictSnapshot* s) {
                          s->blocked_pairs[1].second++;
                        },
                        "verdict-pairs: row 1 item"},
        VerdictDiffCase{"PairRows",
                        [](serve::VerdictSnapshot* s) {
                          s->blocked_pairs.pop_back();
                        },
                        "verdict-pairs: rows"}),
    [](const ::testing::TestParamInfo<VerdictDiffCase>& info) {
      return std::string(info.param.name);
    });

TEST(ValidateVerdictTransitionTest, AnyPublishMayRetractVerdicts) {
  serve::VerdictSnapshot prev;
  prev.epoch = 4;
  prev.flagged_users = {1, 2};
  prev.user_risks = {1.0, 2.0};
  prev.stats.accepted = 10;
  prev.stats.applied = 8;
  serve::VerdictSnapshot next;
  next.epoch = 5;
  next.flagged_users = {2};
  next.user_risks = {2.0};
  next.stats = prev.stats;
  EXPECT_TRUE(check::ValidateVerdictTransition(prev, next).ok());

  next.epoch = 4;
  ExpectRejected(check::ValidateVerdictTransition(prev, next),
                 StatusCode::kInternal, "epoch-not-increasing");
  next.epoch = 5;
  next.stats.applied = 7;
  ExpectRejected(check::ValidateVerdictTransition(prev, next),
                 StatusCode::kInternal, "stats-regressed");
}

}  // namespace
}  // namespace ricd
