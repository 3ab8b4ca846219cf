// Tests for the windowed click retention layer (src/window): segment seal
// and eviction edge cases, accounting conservation, the invariant
// validators, a TSan-targeted seal/evict-vs-snapshot race, and the
// load-bearing windowed differential — every publish of a regime-shift click
// stream served through the windowed DetectionService must be bit-identical
// to an offline Run over an independent pure-ClickWindow replay of the same
// timestamped trace, cut for cut.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/diff_result.h"
#include "check/validate_window.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ricd/framework.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"
#include "serve/detection_service.h"
#include "table/click_table.h"
#include "window/click_window.h"

namespace ricd::window {
namespace {

table::ClickRecord Rec(int user, int item) { return {user, item, 1}; }

// ---------------------------------------------------------------------------
// ClickWindow unit edges
// ---------------------------------------------------------------------------

TEST(ClickWindowTest, EmptyWindowDrainsToNothing) {
  ClickWindow window;
  const WindowSnapshot snap = window.Snapshot();
  EXPECT_TRUE(snap.segments.empty());
  EXPECT_TRUE(snap.live.empty());
  EXPECT_EQ(snap.rows(), 0u);
  EXPECT_TRUE(window.MaterializeRetained().empty());

  const WindowStats stats = window.stats();
  EXPECT_EQ(stats.appended_rows, 0u);
  EXPECT_EQ(stats.retained_rows, 0u);
  EXPECT_EQ(stats.sealed_segments, 0u);
  EXPECT_TRUE(check::ValidateWindowSnapshot(snap).ok());
  EXPECT_TRUE(check::ValidateWindowStats(stats, window.options()).ok());
}

TEST(ClickWindowTest, SealsAtSegmentClicksAndConservesRows) {
  WindowOptions options;
  options.segment_clicks = 4;
  ClickWindow window(options);
  for (int i = 0; i < 10; ++i) window.Append(Rec(i, 100 + i), i);

  const WindowStats stats = window.stats();
  EXPECT_EQ(stats.appended_rows, 10u);
  EXPECT_EQ(stats.sealed_segments, 2u);  // two full segments of 4
  EXPECT_EQ(stats.retained_segments, 2u);
  EXPECT_EQ(stats.live_rows, 2u);
  EXPECT_EQ(stats.retained_rows, 10u);
  EXPECT_EQ(stats.evicted_rows, 0u);
  EXPECT_EQ(stats.clock_high, 9u);

  const WindowSnapshot snap = window.Snapshot();
  ASSERT_EQ(snap.segments.size(), 2u);
  EXPECT_EQ(snap.segments[0]->seq, 0u);
  EXPECT_EQ(snap.segments[1]->seq, 1u);
  EXPECT_EQ(snap.segments[0]->min_ts, 0u);
  EXPECT_EQ(snap.segments[0]->max_ts, 3u);
  EXPECT_EQ(snap.segments[1]->min_ts, 4u);
  EXPECT_EQ(snap.segments[1]->max_ts, 7u);
  EXPECT_TRUE(check::ValidateWindowSnapshot(snap).ok());
  EXPECT_TRUE(check::ValidateWindowStats(stats, options).ok());

  // Materialized retained rows == everything appended (no eviction yet).
  EXPECT_EQ(snap.Materialize().num_rows(), 10u);
}

TEST(ClickWindowTest, SingleSegmentRetentionKeepsOnlyTheTail) {
  // max_clicks == segment_clicks: as soon as a second segment seals, the
  // first is evicted — the window degenerates to "last segment + live".
  WindowOptions options;
  options.segment_clicks = 4;
  options.max_clicks = 4;
  ClickWindow window(options);
  for (int i = 0; i < 13; ++i) window.Append(Rec(i, 7), i);

  // Count eviction is greedy-oldest while retained > max_clicks: the 13th
  // (live) row pushes retained past the bound again, so even the newest
  // sealed segment goes — only the live row survives.
  const WindowStats stats = window.stats();
  EXPECT_EQ(stats.appended_rows, 13u);
  EXPECT_EQ(stats.sealed_segments, 3u);
  EXPECT_EQ(stats.retained_segments, 0u);
  EXPECT_EQ(stats.evicted_segments, 3u);
  EXPECT_EQ(stats.evicted_rows, 12u);
  EXPECT_EQ(stats.retained_rows, 1u);  // the live row — never evicted
  EXPECT_LE(stats.retained_rows, options.max_clicks + options.segment_clicks);
  EXPECT_EQ(stats.retained_rows + stats.evicted_rows, stats.appended_rows);
  EXPECT_TRUE(check::ValidateWindowStats(stats, options).ok());

  // The retained row is exactly the newest one.
  const table::ClickTable retained = window.MaterializeRetained();
  ASSERT_EQ(retained.num_rows(), 1u);
  EXPECT_EQ(retained.user(0), 12);
}

TEST(ClickWindowTest, TimeEvictionKeepsSegmentExactlyAtBoundary) {
  // Segment max_ts + max_seconds == clock_high is the inclusive edge: KEPT.
  // One more clock tick pushes it over and evicts it.
  WindowOptions options;
  options.segment_clicks = 2;
  options.max_seconds = 10;
  ClickWindow window(options);
  window.Append(Rec(1, 1), 0);
  window.Append(Rec(2, 2), 5);  // seals segment 0 with max_ts 5
  ASSERT_EQ(window.stats().sealed_segments, 1u);

  // clock_high = 15 == 5 + 10: exactly at the boundary, still retained.
  window.Append(Rec(3, 3), 15);
  WindowStats stats = window.stats();
  EXPECT_EQ(stats.clock_high, 15u);
  EXPECT_EQ(stats.evicted_segments, 0u);
  EXPECT_EQ(stats.retained_rows, 3u);

  // clock_high = 16 > 5 + 10: the segment expires.
  window.Append(Rec(4, 4), 16);
  stats = window.stats();
  EXPECT_EQ(stats.evicted_segments, 1u);
  EXPECT_EQ(stats.evicted_rows, 2u);
  EXPECT_EQ(stats.retained_rows, 2u);  // the two live rows at ts 15/16
  EXPECT_TRUE(check::ValidateWindowStats(stats, options).ok());
}

TEST(ClickWindowTest, LateEventNeverMovesClockBackwards) {
  WindowOptions options;
  options.segment_clicks = 2;
  options.max_seconds = 100;
  ClickWindow window(options);
  window.Append(Rec(1, 1), 50);
  window.Append(Rec(2, 2), 40);  // late arrival; seals with max_ts 50
  EXPECT_EQ(window.stats().clock_high, 50u);
  const WindowSnapshot snap = window.Snapshot();
  ASSERT_EQ(snap.segments.size(), 1u);
  EXPECT_EQ(snap.segments[0]->min_ts, 40u);
  EXPECT_EQ(snap.segments[0]->max_ts, 50u);
  EXPECT_TRUE(check::ValidateWindowSnapshot(snap).ok());
}

TEST(ClickWindowTest, UnboundedOptionsNeverEvict) {
  ClickWindow window;  // max_clicks == max_seconds == 0
  for (int i = 0; i < 20000; ++i) window.Append(Rec(i, i % 97), i);
  const WindowStats stats = window.stats();
  EXPECT_EQ(stats.evicted_segments, 0u);
  EXPECT_EQ(stats.retained_rows, 20000u);
  EXPECT_EQ(window.MaterializeRetained().num_rows(), 20000u);
}

TEST(ClickWindowTest, TimeSealSplitsSlowTraffic) {
  WindowOptions options;
  options.segment_clicks = 1000;  // count seal unreachable here
  options.segment_seconds = 10;
  ClickWindow window(options);
  for (int i = 0; i < 30; ++i) window.Append(Rec(i, 1), i * 2);
  // 30 events spanning 58 event-seconds with a 10-second span seal: the
  // live segment seals every time its span exceeds 10 seconds.
  const WindowStats stats = window.stats();
  EXPECT_GE(stats.sealed_segments, 4u);
  EXPECT_EQ(stats.retained_rows, 30u);
  EXPECT_TRUE(check::ValidateWindowSnapshot(window.Snapshot()).ok());
}

// ---------------------------------------------------------------------------
// MaterializeRetained's cached sealed run against the reference
// ---------------------------------------------------------------------------

// Seeded random append sequences under count and under time retention, with
// (user, item) pairs repeating within and across segments and a share of
// counts near ClickCount's maximum, so merges saturate. After every append
// the cached path must equal Snapshot().Materialize() column for column, and
// the run must be rebuilt once per sealed-set change a call observes: a
// seal, or an eviction alone (time retention, or a live row pushing the
// count past the bound), never once per call.
TEST(ClickWindowTest, MaterializeRetainedEqualsTheReferenceAfterEveryAppend) {
  constexpr table::ClickCount kMax =
      std::numeric_limits<table::ClickCount>::max();
  constexpr uint64_t kAppends = 1500;
  obs::Counter* const rebuilds = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kWindowSealedRunRebuildsTotal);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const bool time_retention : {false, true}) {
      Rng rng(seed);
      WindowOptions options;
      options.segment_clicks = 8 + rng.Uniform(57);  // 8..64
      if (time_retention) {
        options.max_seconds = 40;
      } else {
        options.max_clicks = 3 * options.segment_clicks + rng.Uniform(8);
      }
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " segment_clicks "
                   << options.segment_clicks << " max_clicks "
                   << options.max_clicks << " max_seconds "
                   << options.max_seconds);
      ClickWindow window(options);
      const uint64_t rebuilds_before = rebuilds->Value();
      uint64_t want_rebuilds = 0;
      uint64_t saturated_rows = 0;
      WindowStats seen = window.stats();
      uint64_t ts = 0;
      for (uint64_t i = 0; i < kAppends; ++i) {
        const table::ClickCount clicks =
            rng.Bernoulli(0.1) ? kMax - static_cast<table::ClickCount>(
                                            rng.Uniform(3))
                               : static_cast<table::ClickCount>(
                                     1 + rng.Uniform(5));
        ts += rng.Uniform(3);
        window.Append({static_cast<table::UserId>(rng.Uniform(12)),
                       static_cast<table::ItemId>(rng.Uniform(12)), clicks},
                      ts);
        const WindowStats stats = window.stats();
        if (stats.sealed_segments != seen.sealed_segments ||
            stats.evicted_segments != seen.evicted_segments) {
          ++want_rebuilds;
        }
        seen = stats;

        const table::ClickTable got = window.MaterializeRetained();
        const table::ClickTable want = window.Snapshot().Materialize();
        ASSERT_EQ(got.user_column(), want.user_column()) << "append " << i;
        ASSERT_EQ(got.item_column(), want.item_column()) << "append " << i;
        ASSERT_EQ(got.click_column(), want.click_column()) << "append " << i;
        saturated_rows += static_cast<uint64_t>(std::count(
            got.click_column().begin(), got.click_column().end(), kMax));
      }
      const WindowStats stats = window.stats();
      EXPECT_GT(stats.evicted_segments, 0u);
      EXPECT_GT(saturated_rows, 0u);
      EXPECT_EQ(rebuilds->Value() - rebuilds_before, want_rebuilds);
      EXPECT_LT(want_rebuilds, kAppends);
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant validators
// ---------------------------------------------------------------------------

TEST(ValidateWindowTest, CatchesBrokenSnapshots) {
  auto seg = [](uint64_t seq, uint64_t min_ts, uint64_t max_ts) {
    auto s = std::make_shared<WindowSegment>();
    s->seq = seq;
    s->min_ts = min_ts;
    s->max_ts = max_ts;
    s->rows.Append(Rec(1, 1));
    return s;
  };

  WindowSnapshot snap;
  snap.clock_high = 100;
  snap.segments = {seg(0, 0, 5), seg(1, 6, 9)};
  EXPECT_TRUE(check::ValidateWindowSnapshot(snap).ok());

  snap.segments = {seg(0, 0, 5), nullptr};
  EXPECT_NE(check::ValidateWindowSnapshot(snap).message().find("null-segment"),
            std::string::npos);

  snap.segments = {seg(3, 0, 5), seg(3, 6, 9)};
  EXPECT_NE(check::ValidateWindowSnapshot(snap).message().find("seq-order"),
            std::string::npos);

  auto empty_seg = std::make_shared<WindowSegment>();
  empty_seg->seq = 0;
  snap.segments = {std::move(empty_seg)};
  EXPECT_NE(check::ValidateWindowSnapshot(snap).message().find("empty-segment"),
            std::string::npos);

  snap.segments = {seg(0, 9, 5)};
  EXPECT_NE(check::ValidateWindowSnapshot(snap).message().find("ts-span"),
            std::string::npos);

  snap.segments = {seg(0, 0, 500)};  // beyond clock_high 100
  EXPECT_NE(
      check::ValidateWindowSnapshot(snap).message().find("ts-ahead-of-clock"),
      std::string::npos);
}

TEST(ValidateWindowTest, CatchesBrokenStats) {
  WindowOptions options;
  options.max_clicks = 100;
  options.segment_clicks = 10;

  WindowStats stats;
  stats.appended_rows = 10;
  stats.retained_rows = 7;
  stats.evicted_rows = 3;
  stats.sealed_segments = 2;
  stats.evicted_segments = 1;
  stats.retained_segments = 1;
  stats.live_rows = 2;
  EXPECT_TRUE(check::ValidateWindowStats(stats, options).ok());

  WindowStats bad = stats;
  bad.evicted_rows = 4;
  EXPECT_NE(check::ValidateWindowStats(bad, options)
                .message()
                .find("rows-not-conserved"),
            std::string::npos);

  bad = stats;
  bad.evicted_segments = 3;
  EXPECT_NE(check::ValidateWindowStats(bad, options)
                .message()
                .find("evicted-exceeds-sealed"),
            std::string::npos);

  bad = stats;
  bad.retained_segments = 2;
  EXPECT_NE(check::ValidateWindowStats(bad, options)
                .message()
                .find("segments-not-conserved"),
            std::string::npos);

  bad = stats;
  bad.live_rows = 8;
  EXPECT_NE(check::ValidateWindowStats(bad, options)
                .message()
                .find("live-exceeds-retained"),
            std::string::npos);

  bad = stats;
  bad.appended_rows = 200;
  bad.retained_rows = 197;
  EXPECT_NE(
      check::ValidateWindowStats(bad, options).message().find("count-bound"),
      std::string::npos);
}

// ---------------------------------------------------------------------------
// Seal/evict racing snapshot readers (the TSan leg's target)
// ---------------------------------------------------------------------------

TEST(ClickWindowRaceTest, AppenderSealsAndEvictsUnderConcurrentReaders) {
  WindowOptions options;
  options.segment_clicks = 64;
  options.max_clicks = 512;
  options.max_seconds = 300;
  ClickWindow window(options);

  constexpr int kAppends = 20000;
  std::atomic<bool> done{false};
  ThreadPool readers(3);
  for (int r = 0; r < 3; ++r) {
    readers.Submit([&window, &done] {
      while (!done.load(std::memory_order_acquire)) {
        const WindowSnapshot snap = window.Snapshot();
        const Status snap_ok = check::ValidateWindowSnapshot(snap);
        EXPECT_TRUE(snap_ok.ok()) << snap_ok;
        const WindowStats stats = window.stats();
        const Status stats_ok =
            check::ValidateWindowStats(stats, window.options());
        EXPECT_TRUE(stats_ok.ok()) << stats_ok;
        EXPECT_LE(snap.rows(), stats.appended_rows);
        // Rebuilds the cached sealed run while the appender seals and evicts.
        const table::ClickTable retained = window.MaterializeRetained();
        EXPECT_TRUE(retained.IsConsolidated());
        EXPECT_LE(retained.num_rows(), window.stats().appended_rows);
      }
    });
  }
  for (int i = 0; i < kAppends; ++i) {
    window.Append(Rec(i % 300, i % 97), static_cast<uint64_t>(i / 10));
  }
  done.store(true, std::memory_order_release);
  readers.Wait();

  const WindowStats stats = window.stats();
  EXPECT_EQ(stats.appended_rows, static_cast<uint64_t>(kAppends));
  EXPECT_GT(stats.evicted_rows, 0u);
  EXPECT_LE(stats.retained_rows, options.max_clicks + options.segment_clicks);
}

// ---------------------------------------------------------------------------
// The windowed differential (the PR's load-bearing proof)
// ---------------------------------------------------------------------------

/// Detection parameters that actually flag attacks at tiny scenario scale
/// (same knobs as serve_test's differential).
core::FrameworkOptions TinyFrameworkOptions() {
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.t_click = 12;
  return options;
}

// Streams the regime_shift preset through the windowed service in 256-row
// cuts, draining after each, and compares every drained publish — flagged
// ids AND risks AND blocked pairs — against an offline Run over an
// independent pure-ClickWindow replay of the same trace up to the same cut.
// Runs 2 seeds x 2 retention settings. Each seed must see a publish retract
// a verdict: retention evicted the rows that supported it.
TEST(WindowedDifferentialTest, EveryPublishEqualsOfflineRunOverRetainedRows) {
  struct Retention {
    uint64_t max_clicks;
    uint64_t max_seconds;
    uint64_t segment_clicks;
  };
  const Retention retentions[] = {
      {2000, 0, 256},   // count-bounded
      {0, 4000, 128},   // time-bounded
  };
  constexpr size_t kCut = 256;
  const core::RicdFramework offline(TinyFrameworkOptions());
  for (const uint64_t seed : {42u, 7u}) {
    uint64_t retractions = 0;
    for (const Retention& retention : retentions) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " max_clicks " << retention.max_clicks
                   << " max_seconds " << retention.max_seconds);
      auto spec = ricd::scenario::FindScenario("regime_shift");
      ASSERT_TRUE(spec.ok()) << spec.status();
      spec->seed = seed;
      auto materialized = ricd::scenario::Materialize(*spec);
      ASSERT_TRUE(materialized.ok()) << materialized.status();
      const std::vector<ricd::scenario::ArrivalEvent> schedule =
          ricd::scenario::ArrivalSchedule(*spec, materialized->table);
      ASSERT_EQ(schedule.size(), materialized->table.num_rows());

      serve::ServeOptions options;
      options.framework = TinyFrameworkOptions();
      options.ingest_batch = 256;
      options.min_refresh_gap_ms = 2;
      options.window.max_clicks = retention.max_clicks;
      options.window.max_seconds = retention.max_seconds;
      options.window.segment_clicks = retention.segment_clicks;

      serve::DetectionService service(options);
      ASSERT_TRUE(service.Start(table::ClickTable()).ok());
      // Offline reference: an independent window replay of the same trace.
      // Retention is a pure function of (options, append sequence,
      // timestamps), so this window retains the same rows the service's
      // does at every cut.
      ClickWindow replay(options.window);
      std::vector<table::UserId> prev_users;
      std::vector<table::ItemId> prev_items;
      for (size_t begin = 0; begin < schedule.size(); begin += kCut) {
        const size_t end = std::min(schedule.size(), begin + kCut);
        SCOPED_TRACE(testing::Message() << "cut ending at row " << end);
        for (size_t i = begin; i < end; ++i) {
          const ricd::scenario::ArrivalEvent& ev = schedule[i];
          const table::ClickRecord rec = materialized->table.row(ev.row);
          Status pushed = service.IngestClickAt(rec, ev.ts);
          while (!pushed.ok() &&
                 pushed.code() == StatusCode::kResourceExhausted) {
            std::this_thread::yield();
            pushed = service.IngestClickAt(rec, ev.ts);
          }
          ASSERT_TRUE(pushed.ok()) << pushed;
          replay.Append(rec, ev.ts);
        }
        ASSERT_TRUE(service.Drain().ok());

        const table::ClickTable retained = replay.Snapshot().Materialize();
        core::FrameworkResult want;
        if (!retained.empty()) {
          auto run = offline.Run(retained);
          ASSERT_TRUE(run.ok()) << run.status();
          want = std::move(run).value();
        }
        const serve::VerdictStore::ReadRef served = service.Verdicts();
        EXPECT_EQ(served->stats.applied, end);
        const Status same = check::DiffVerdictSnapshot(want, retained, *served);
        ASSERT_TRUE(same.ok()) << same;
        if (!std::includes(served->flagged_users.begin(),
                           served->flagged_users.end(), prev_users.begin(),
                           prev_users.end()) ||
            !std::includes(served->flagged_items.begin(),
                           served->flagged_items.end(), prev_items.begin(),
                           prev_items.end())) {
          ++retractions;
        }
        prev_users = served->flagged_users;
        prev_items = served->flagged_items;
      }

      const window::WindowStats replay_stats = replay.stats();
      const window::WindowStats served_stats = service.window_stats();
      EXPECT_EQ(served_stats.appended_rows, replay_stats.appended_rows);
      EXPECT_EQ(served_stats.retained_rows, replay_stats.retained_rows);
      EXPECT_EQ(served_stats.evicted_rows, replay_stats.evicted_rows);
      EXPECT_EQ(served_stats.sealed_segments, replay_stats.sealed_segments);
      EXPECT_EQ(served_stats.clock_high, replay_stats.clock_high);
      // Retention did real work in this configuration.
      EXPECT_GT(replay_stats.evicted_rows, 0u);
      ASSERT_TRUE(service.Shutdown().ok());
    }
    EXPECT_GT(retractions, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ricd::window
