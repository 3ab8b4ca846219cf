// Tests for the online detection service (src/serve): wire protocol
// round-trips and fuzzing, bounded-queue backpressure, RCU-style snapshot
// publication, the DetectionService lifecycle, the TCP front end and its
// telemetry cost model, and the differential guarantee — a click stream
// served through ingest batches with concurrent queries must, once drained,
// publish exactly the offline pipeline's verdicts over the consolidated
// full table.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/diff_result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gen/scenario.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "graph/graph_builder.h"
#include "i2i/recommender.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"
#include "serve/detection_service.h"
#include "serve/ingest_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/verdict_store.h"
#include "table/click_table.h"

namespace ricd::serve {
namespace {

/// Encode* helpers return framed bytes; Decode* consume the bare payload.
std::string Payload(const std::string& frame) { return frame.substr(4); }

/// Detection parameters that actually flag attacks at tiny scenario scale.
core::FrameworkOptions TinyFrameworkOptions() {
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.t_click = 12;
  return options;
}

ServeOptions TinyServeOptions() {
  ServeOptions options;
  options.framework = TinyFrameworkOptions();
  options.ingest_batch = 64;
  options.max_batch_delay_ms = 5;
  return options;
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, FramePrependsLittleEndianLength) {
  const std::string frame = EncodePing();
  ASSERT_EQ(frame.size(), 5u);  // 4-byte prefix + 1-byte opcode
  EXPECT_EQ(static_cast<uint8_t>(frame[0]), 1u);
  EXPECT_EQ(frame[1], 0);
  EXPECT_EQ(frame[2], 0);
  EXPECT_EQ(frame[3], 0);
  EXPECT_EQ(static_cast<uint8_t>(frame[4]),
            static_cast<uint8_t>(OpCode::kPing));
}

TEST(ProtocolTest, VerdictReplyRoundTrip) {
  VerdictReply reply;
  reply.flagged = true;
  reply.risk = 0.375;
  reply.epoch = 7;
  const auto decoded = DecodeVerdict(Payload(EncodeVerdict(reply)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->flagged);
  EXPECT_EQ(decoded->risk, 0.375);
  EXPECT_EQ(decoded->epoch, 7u);
}

TEST(ProtocolTest, IngestAckRoundTrip) {
  IngestAck ack;
  ack.accepted = 12;
  ack.rejected = 3;
  ack.epoch = 99;
  const auto decoded = DecodeIngestAck(Payload(EncodeIngestAck(ack)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->accepted, 12u);
  EXPECT_EQ(decoded->rejected, 3u);
  EXPECT_EQ(decoded->epoch, 99u);
}

TEST(ProtocolTest, StatsReplyRoundTrip) {
  StatsReply reply;
  reply.epoch = 1;
  reply.stats.accepted = 2;
  reply.stats.rejected = 3;
  reply.stats.applied = 4;
  reply.stats.batches = 5;
  reply.stats.stream_edges = 7;
  reply.stats.stream_clicks = 8;
  reply.stats.window_retained_rows = 1234;
  reply.stats.window_segments = 5;
  reply.stats.window_evicted_segments = 6;
  reply.stats.window_evicted_rows = 789;
  reply.stats.window_clock_high = 86399;
  reply.flagged_users = 10;
  reply.flagged_items = 11;
  reply.blocked_pairs = 12;
  reply.ingest_p50 = 0.001;
  reply.ingest_p95 = 0.002;
  reply.ingest_p99 = 0.004;
  reply.query_p50 = 0.0005;
  reply.query_p95 = 0.0015;
  reply.query_p99 = 0.0025;
  const std::string payload = Payload(EncodeStatsReply(reply));
  // One fixed layout: opcode, 15 uint64 counters, 6 double quantiles.
  EXPECT_EQ(payload.size(), 1u + 15 * 8 + 6 * 8);
  const auto decoded = DecodeStatsReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 1u);
  EXPECT_EQ(decoded->stats.accepted, 2u);
  EXPECT_EQ(decoded->stats.rejected, 3u);
  EXPECT_EQ(decoded->stats.applied, 4u);
  EXPECT_EQ(decoded->stats.batches, 5u);
  EXPECT_EQ(decoded->stats.stream_edges, 7u);
  EXPECT_EQ(decoded->stats.stream_clicks, 8u);
  EXPECT_EQ(decoded->stats.window_retained_rows, 1234u);
  EXPECT_EQ(decoded->stats.window_segments, 5u);
  EXPECT_EQ(decoded->stats.window_evicted_segments, 6u);
  EXPECT_EQ(decoded->stats.window_evicted_rows, 789u);
  EXPECT_EQ(decoded->stats.window_clock_high, 86399u);
  EXPECT_EQ(decoded->flagged_users, 10u);
  EXPECT_EQ(decoded->flagged_items, 11u);
  EXPECT_EQ(decoded->blocked_pairs, 12u);
  EXPECT_EQ(decoded->ingest_p50, 0.001);
  EXPECT_EQ(decoded->ingest_p95, 0.002);
  EXPECT_EQ(decoded->ingest_p99, 0.004);
  EXPECT_EQ(decoded->query_p50, 0.0005);
  EXPECT_EQ(decoded->query_p95, 0.0015);
  EXPECT_EQ(decoded->query_p99, 0.0025);
}

TEST(ProtocolTest, IngestBatchRoundTrip) {
  const std::vector<table::ClickRecord> records = {
      {1, 10, 3}, {-5, 20, 1}, {7, -2, 12}};
  const auto decoded = DecodeIngest(Payload(EncodeIngest(records)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, records);
}

TEST(ProtocolTest, ErrorFrameCarriesStatusCodeAndMessage) {
  const std::string frame = EncodeError(Status::ResourceExhausted("queue full"));
  const Status decoded = DecodeError(Payload(frame));
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), "queue full");
  // A verdict decoder receiving an error payload surfaces that status.
  const auto as_verdict = DecodeVerdict(Payload(frame));
  ASSERT_FALSE(as_verdict.ok());
  EXPECT_EQ(as_verdict.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProtocolTest, TruncatedPayloadIsInvalidArgument) {
  VerdictReply reply;
  reply.epoch = 3;
  std::string payload = Payload(EncodeVerdict(reply));
  payload.pop_back();
  const auto decoded = DecodeVerdict(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, PayloadReaderUnderrunFails) {
  const std::string three_bytes("\x01\x02\x03", 3);
  PayloadReader reader(three_bytes);
  const auto u64 = reader.GetU64();
  ASSERT_FALSE(u64.ok());
  EXPECT_EQ(u64.status().code(), StatusCode::kInvalidArgument);
  // A failed read consumes nothing: smaller reads still succeed.
  const auto u8 = reader.GetU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(u8.value(), 1u);
}

TEST(ProtocolTest, FrameIoRoundTripsOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame = EncodeQueryUser(42);
  ASSERT_TRUE(WriteAll(fds[0], frame).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds[1], &payload).ok());
  EXPECT_EQ(payload, Payload(frame));

  // Zero-length and oversized length prefixes are both refused.
  const std::string zero_len(4, '\0');
  ASSERT_TRUE(WriteAll(fds[0], zero_len).ok());
  Status read = ReadFrame(fds[1], &payload);
  EXPECT_EQ(read.code(), StatusCode::kInvalidArgument);
  std::string huge_len(4, '\0');
  huge_len[3] = 0x7f;  // ~2 GiB >> kMaxFrameBytes
  ASSERT_TRUE(WriteAll(fds[0], huge_len).ok());
  read = ReadFrame(fds[1], &payload);
  EXPECT_EQ(read.code(), StatusCode::kInvalidArgument);

  // Peer close surfaces as IoError, not a hang or a short read.
  const int rc = ::close(fds[0]);
  ASSERT_EQ(rc, 0);
  read = ReadFrame(fds[1], &payload);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  const int rc2 = ::close(fds[1]);
  EXPECT_EQ(rc2, 0);
}

// ---------------------------------------------------------------------------
// Protocol fuzz: deterministic corruption of every socket-facing decoder
// ---------------------------------------------------------------------------

/// One decoder under fuzz. `decode` maps a payload to the decoder's Status;
/// `fixed` marks layouts without a variable-length tail, where every
/// truncation and every extra byte must be rejected.
struct FuzzTarget {
  const char* name;
  std::string seed;  // a valid payload
  Status (*decode)(const std::string& payload);
  bool fixed;
};

std::vector<FuzzTarget> FuzzTargets() {
  StatsReply stats;
  stats.epoch = 77;
  stats.stats.accepted = 1000;
  stats.stats.window_retained_rows = 900;
  stats.query_p99 = 0.25;
  return {
      {"DecodeIngest",
       Payload(EncodeIngest({{1, 10, 3}, {-5, 20, 1}, {7, -2, 12}})),
       [](const std::string& p) { return DecodeIngest(p).status(); }, true},
      {"DecodeStatsReply", Payload(EncodeStatsReply(stats)),
       [](const std::string& p) { return DecodeStatsReply(p).status(); },
       true},
      {"DecodeVerdict", Payload(EncodeVerdict({true, 0.375, 7})),
       [](const std::string& p) { return DecodeVerdict(p).status(); }, true},
      {"DecodeIngestAck", Payload(EncodeIngestAck({12, 3, 99})),
       [](const std::string& p) { return DecodeIngestAck(p).status(); },
       true},
      {"DecodeMetricsReply", Payload(EncodeMetricsReply("ricd_up 1\n")),
       [](const std::string& p) { return DecodeMetricsReply(p).status(); },
       false},
      {"DecodeError",
       Payload(EncodeError(Status::ResourceExhausted("queue full"))),
       [](const std::string& p) {
         // A well-formed kError payload decodes to the status it carries;
         // count that as success.
         const Status carried = DecodeError(p);
         if (p.size() >= 2 &&
             static_cast<uint8_t>(carried.code()) ==
                 static_cast<uint8_t>(p[1])) {
           return Status::Ok();
         }
         return carried;
       },
       false},
  };
}

void ExpectOkOrInvalidArgument(const Status& got) {
  EXPECT_TRUE(got.ok() || got.code() == StatusCode::kInvalidArgument) << got;
}

// snapshot_fuzz_test's mutations applied to the wire: every truncation
// length, one flip of every bit, and one appended byte. Each decoder must
// answer Ok or InvalidArgument, never crash or read out of bounds (this
// binary runs in every sanitizer leg).
TEST(ProtocolFuzzTest, EveryDecoderRejectsCorruptionCleanly) {
  for (const FuzzTarget& target : FuzzTargets()) {
    SCOPED_TRACE(target.name);
    const std::string& seed = target.seed;
    ASSERT_TRUE(target.decode(seed).ok()) << target.decode(seed);
    for (size_t cut = 0; cut < seed.size(); ++cut) {
      SCOPED_TRACE(testing::Message() << "truncated to " << cut);
      const Status got = target.decode(seed.substr(0, cut));
      if (target.fixed || cut == 0) {
        EXPECT_EQ(got.code(), StatusCode::kInvalidArgument) << got;
      } else {
        ExpectOkOrInvalidArgument(got);
      }
    }
    for (size_t bit = 0; bit < seed.size() * 8; ++bit) {
      SCOPED_TRACE(testing::Message() << "bit " << bit << " flipped");
      std::string flipped = seed;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      ExpectOkOrInvalidArgument(target.decode(flipped));
    }
    const Status appended = target.decode(seed + '\x5a');
    if (target.fixed) {
      EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument) << appended;
    } else {
      EXPECT_TRUE(appended.ok()) << appended;
    }
  }
}

TEST(ProtocolFuzzTest, IngestCountMustMatchThePayload) {
  const std::string seed = Payload(EncodeIngest({{1, 2, 3}, {4, 5, 6}}));
  for (const uint32_t count : {0u, 3u, 0xFFFFFFFFu}) {  // 0, n + 1, max
    SCOPED_TRACE(testing::Message() << "count " << count);
    std::string patched = seed;
    for (int i = 0; i < 4; ++i) {
      patched[1 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
    }
    EXPECT_EQ(DecodeIngest(patched).status().code(),
              StatusCode::kInvalidArgument);
  }
  // An empty batch is well formed when it says so.
  const auto empty = DecodeIngest(Payload(EncodeIngest({})));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

// ---------------------------------------------------------------------------
// IngestQueue
// ---------------------------------------------------------------------------

TEST(IngestQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(IngestQueue(3).capacity(), 4u);
  EXPECT_EQ(IngestQueue(1).capacity(), 2u);
  EXPECT_EQ(IngestQueue(8).capacity(), 8u);
}

TEST(IngestQueueTest, FullQueueRejectsWithResourceExhausted) {
  IngestQueue queue(4);
  for (int i = 0; i < 4; ++i) {
    const Status pushed = queue.Push({i, i, 1});
    ASSERT_TRUE(pushed.ok()) << pushed;
  }
  const Status fifth = queue.Push({4, 4, 1});
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.code(), StatusCode::kResourceExhausted);

  IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.popped, 0u);
  EXPECT_EQ(stats.depth, 4u);

  // Draining frees slots for new pushes; nothing was silently dropped.
  std::vector<table::ClickRecord> out;
  EXPECT_EQ(queue.PopBatch(&out, 2), 2u);
  EXPECT_EQ(out[0].user, 0);
  EXPECT_EQ(out[1].user, 1);
  EXPECT_TRUE(queue.Push({5, 5, 1}).ok());
  stats = queue.stats();
  EXPECT_EQ(stats.pushed, 5u);
  EXPECT_EQ(stats.popped, 2u);
  EXPECT_EQ(stats.depth, 3u);
}

TEST(IngestQueueTest, PopBatchPreservesFifoAcrossWraparound) {
  IngestQueue queue(4);
  std::vector<table::ClickRecord> out;
  for (int round = 0; round < 5; ++round) {
    const int base = round * 3;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.Push({base + i, 0, 1}).ok());
    }
    out.clear();
    ASSERT_EQ(queue.PopBatch(&out, 8), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i].user, base + i);
    }
  }
  EXPECT_EQ(queue.depth(), 0u);
}

// ---------------------------------------------------------------------------
// VerdictStore / VerdictSnapshot
// ---------------------------------------------------------------------------

std::shared_ptr<const VerdictSnapshot> SnapshotForEpoch(uint64_t epoch) {
  auto snapshot = std::make_shared<VerdictSnapshot>();
  snapshot->epoch = epoch;
  snapshot->flagged_users = {static_cast<table::UserId>(epoch)};
  snapshot->user_risks = {static_cast<double>(epoch)};
  return snapshot;
}

TEST(VerdictStoreTest, StartsWithEmptyEpochZeroSnapshot) {
  VerdictStore store;
  const VerdictStore::ReadRef ref = store.Acquire();
  ASSERT_NE(ref.get(), nullptr);
  EXPECT_EQ(ref->epoch, 0u);
  EXPECT_TRUE(ref->flagged_users.empty());
  EXPECT_EQ(store.CurrentEpoch(), 0u);
}

TEST(VerdictStoreTest, PublishAdvancesEpochAndCount) {
  VerdictStore store;
  for (uint64_t e = 1; e <= 3; ++e) store.Publish(SnapshotForEpoch(e));
  EXPECT_EQ(store.CurrentEpoch(), 3u);
  EXPECT_EQ(store.PublishCount(), 3u);
  EXPECT_EQ(store.Acquire()->epoch, 3u);
}

TEST(VerdictStoreTest, PinnedReaderSurvivesLaterPublishes) {
  VerdictStore store;
  VerdictStore::ReadRef pinned = store.Acquire();
  // kRingSlots - 1 publishes land in other slots; the pinned snapshot's
  // slot is not recycled while the reference is held.
  for (uint64_t e = 1; e < VerdictStore::kRingSlots; ++e) {
    store.Publish(SnapshotForEpoch(e));
  }
  EXPECT_EQ(pinned->epoch, 0u);
  EXPECT_TRUE(pinned->flagged_users.empty());
  EXPECT_EQ(store.Acquire()->epoch, VerdictStore::kRingSlots - 1);
  // Releasing the pin lets the writer recycle the slot.
  pinned = VerdictStore::ReadRef();
  store.Publish(SnapshotForEpoch(VerdictStore::kRingSlots));
  EXPECT_EQ(store.CurrentEpoch(), VerdictStore::kRingSlots);
}

TEST(VerdictSnapshotTest, BinarySearchLookupsAndRisks) {
  VerdictSnapshot snapshot;
  snapshot.flagged_users = {3, 7};
  snapshot.user_risks = {0.25, 0.5};
  snapshot.flagged_items = {11};
  snapshot.item_risks = {0.75};
  snapshot.blocked_pairs = {{3, 11}, {7, 11}};
  EXPECT_TRUE(snapshot.FlaggedUser(3));
  EXPECT_FALSE(snapshot.FlaggedUser(4));
  EXPECT_TRUE(snapshot.FlaggedItem(11));
  EXPECT_FALSE(snapshot.FlaggedItem(12));
  EXPECT_TRUE(snapshot.BlockedPair(7, 11));
  EXPECT_FALSE(snapshot.BlockedPair(7, 12));
  EXPECT_EQ(snapshot.UserRisk(7), 0.5);
  EXPECT_EQ(snapshot.UserRisk(8), 0.0);
  EXPECT_EQ(snapshot.ItemRisk(11), 0.75);
  EXPECT_EQ(snapshot.ItemRisk(3), 0.0);
}

// ---------------------------------------------------------------------------
// DetectionService
// ---------------------------------------------------------------------------

TEST(DetectionServiceTest, IngestBeforeStartIsFailedPrecondition) {
  DetectionService service(TinyServeOptions());
  const Status status = service.IngestClick({1, 1, 1});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(DetectionServiceTest, StartPublishesBootstrapVerdicts) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(scenario->table).ok());

  const VerdictStore::ReadRef ref = service.Verdicts();
  EXPECT_EQ(ref->epoch, 1u);
  ASSERT_GT(ref->flagged_users.size(), 0u);
  ASSERT_GT(ref->flagged_items.size(), 0u);
  ASSERT_GT(ref->blocked_pairs.size(), 0u);
  EXPECT_TRUE(std::is_sorted(ref->flagged_users.begin(),
                             ref->flagged_users.end()));
  EXPECT_TRUE(std::is_sorted(ref->blocked_pairs.begin(),
                             ref->blocked_pairs.end()));

  // The wait-free point queries agree with the pinned snapshot.
  const table::UserId flagged = ref->flagged_users.front();
  EXPECT_TRUE(service.IsFlaggedUser(flagged));
  EXPECT_TRUE(service.IsFlaggedItem(ref->flagged_items.front()));
  const auto [bu, bi] = ref->blocked_pairs.front();
  EXPECT_TRUE(service.IsBlockedPair(bu, bi));
  EXPECT_FALSE(service.IsFlaggedUser(-123456789));

  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_FALSE(service.running());
}

TEST(DetectionServiceTest, QueueFullIngestRejectsWithDistinctStatus) {
  ServeOptions options = TinyServeOptions();
  options.queue_capacity = 4;
  // Park the refresh thread: no size trigger, 60 s time trigger — the queue
  // is provably untouched while the producer overruns it.
  options.ingest_batch = 1 << 20;
  options.max_batch_delay_ms = 60000;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(table::ClickTable()).ok());

  for (int i = 0; i < 4; ++i) {
    const Status pushed = service.IngestClick({i, i, 1});
    ASSERT_TRUE(pushed.ok()) << pushed;
  }
  const Status fifth = service.IngestClick({4, 4, 1});
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.queue_stats().rejected, 1u);
  EXPECT_EQ(service.queue_stats().pushed, 4u);

  ASSERT_TRUE(service.Shutdown().ok());
  // After shutdown the producer API reports the service state, not a full
  // queue.
  EXPECT_EQ(service.IngestClick({9, 9, 1}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DetectionServiceTest, DrainAppliesEverythingAccepted) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(table::ClickTable()).ok());

  const size_t n = std::min<size_t>(1000, scenario->table.num_rows());
  for (size_t i = 0; i < n; ++i) {
    const Status pushed = service.IngestClick(scenario->table.row(i));
    ASSERT_TRUE(pushed.ok()) << pushed;
  }
  ASSERT_TRUE(service.Drain().ok());
  const IngestQueueStats stats = service.queue_stats();
  EXPECT_EQ(stats.pushed, n);
  EXPECT_EQ(stats.popped, n);
  EXPECT_EQ(stats.depth, 0u);
  const VerdictStore::ReadRef ref = service.Verdicts();
  EXPECT_EQ(ref->stats.applied, n);
  EXPECT_EQ(ref->stats.rejected, 0u);
  EXPECT_GT(ref->epoch, 1u);  // at least one post-bootstrap publish
  ASSERT_TRUE(service.Shutdown().ok());
}

TEST(DetectionServiceTest, FilterRecommendationsDropsFlaggedItems) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto graph = graph::GraphBuilder::FromTable(scenario->table);
  ASSERT_TRUE(graph.ok()) << graph.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(scenario->table).ok());
  const VerdictStore::ReadRef ref = service.Verdicts();
  ASSERT_GT(ref->flagged_items.size(), 0u);

  const i2i::Recommender recommender(*graph);
  bool saw_filtered_slate = false;
  const graph::VertexId scan =
      std::min<graph::VertexId>(graph->num_users(), 300);
  for (graph::VertexId u = 0; u < scan; ++u) {
    const auto unfiltered = recommender.RecommendForUser(u, 10);
    bool dirty = false;
    for (const i2i::ItemScore& s : unfiltered) {
      const table::ItemId item = graph->ExternalItemId(s.item);
      if (ref->FlaggedItem(item)) dirty = true;
    }
    const auto filtered = service.FilterRecommendations(recommender, u, 10);
    for (const i2i::ItemScore& s : filtered) {
      const table::ItemId item = graph->ExternalItemId(s.item);
      EXPECT_FALSE(ref->FlaggedItem(item));
      EXPECT_FALSE(ref->BlockedPair(graph->ExternalUserId(u), item));
    }
    if (dirty) saw_filtered_slate = true;
  }
  // The fixed tiny seed plants attacks on hot items, so at least one user's
  // raw slate must have contained a flagged item for the filter to remove.
  EXPECT_TRUE(saw_filtered_slate);
  ASSERT_TRUE(service.Shutdown().ok());
}

// Backpressure surfaces in the flight recorder with the queue depth: a
// refused push records a queue_full event carrying depth == capacity.
TEST(DetectionServiceTest, RejectedIngestRecordsBackpressureFlightEvent) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);

  ServeOptions options = TinyServeOptions();
  options.queue_capacity = 4;
  // Park the refresh thread so the overrun is deterministic.
  options.ingest_batch = 1 << 20;
  options.max_batch_delay_ms = 60000;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(table::ClickTable()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.IngestClickAt({i, i, 1}, i).ok());
  }
  const uint64_t before = recorder.total_recorded();
  ASSERT_EQ(service.IngestClickAt({4, 4, 1}, 4).code(),
            StatusCode::kResourceExhausted);
  EXPECT_GT(recorder.total_recorded(), before);

  bool saw_queue_full = false;
  for (const obs::FlightEvent& ev : recorder.Dump()) {
    if (ev.kind == obs::FlightEventKind::kBackpressure &&
        std::string(ev.detail) == "queue_full") {
      saw_queue_full = true;
      EXPECT_EQ(ev.a, 4u);   // queue depth at refusal == capacity
      EXPECT_GE(ev.b, 1u);   // cumulative rejected count
    }
  }
  EXPECT_TRUE(saw_queue_full);

  ASSERT_TRUE(service.Shutdown().ok());
  recorder.set_enabled(was_enabled);
}

// STATS carries the window gauges of the published cut.
TEST(TcpServerTest, StatsExposesWindowGauges) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ServeOptions options = TinyServeOptions();
  options.window.segment_clicks = 256;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(scenario->table).ok());
  TcpServer server(&service, TcpServer::Options{0, 1});
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The bootstrap table seeded the window; the gauges reflect it.
  EXPECT_EQ(stats->stats.window_retained_rows, scenario->table.num_rows());
  EXPECT_GT(stats->stats.window_segments, 0u);
  EXPECT_EQ(stats->stats.window_evicted_rows, 0u);
  EXPECT_EQ(stats->stats.applied, 0u);

  const uint64_t epoch = stats->epoch;
  ASSERT_TRUE(service.ForceRebuild().ok());
  stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, epoch + 1);
  EXPECT_EQ(stats->stats.window_retained_rows, scenario->table.num_rows());

  client.Disconnect();
  server.Stop();
  ASSERT_TRUE(service.Shutdown().ok());
}

// The acceptance test: serve a click stream through the service (ingest
// batches + queries racing the refresh thread), then drain — the published
// verdicts must be bit-identical (ids AND risk scores AND blocked pairs) to
// the offline pipeline run once over the consolidated table.
TEST(DetectionServiceDifferentialTest, StreamConvergesToOfflinePipeline) {
  for (const uint64_t seed : {42u, 7u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // The registry's pinned-floor scenario: burst arrival means the minted
    // attack accounts land as one contiguous block in the streamed half —
    // the adversarial case the serve path exists for.
    auto spec = ricd::scenario::FindScenario("ric_burst");
    ASSERT_TRUE(spec.ok()) << spec.status();
    spec->seed = seed;
    auto materialized = ricd::scenario::Materialize(*spec);
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    const table::ClickTable& full = materialized->table;
    const std::vector<uint32_t> arrival =
        ricd::scenario::ArrivalOrder(*spec, full);
    const size_t split = full.num_rows() / 2;

    table::ClickTable initial;
    for (size_t i = 0; i < split; ++i) initial.Append(full.row(arrival[i]));

    ServeOptions options = TinyServeOptions();
    options.ingest_batch = 256;
    options.max_batch_delay_ms = 2;
    DetectionService service(options);
    ASSERT_TRUE(service.Start(initial).ok());

    // Concurrent queriers race every snapshot republication; each verifies
    // that its observed epoch never regresses (monotonic generations).
    std::atomic<bool> stop_readers{false};
    ThreadPool readers(2);
    for (int r = 0; r < 2; ++r) {
      readers.Submit([&service, &full, &stop_readers, r] {
        uint64_t last_epoch = 0;
        size_t i = static_cast<size_t>(r) * 31;
        while (!stop_readers.load(std::memory_order_acquire)) {
          const VerdictStore::ReadRef ref = service.Verdicts();
          EXPECT_GE(ref->epoch, last_epoch);
          last_epoch = ref->epoch;
          const table::ClickRecord rec = full.row(i % full.num_rows());
          // Within one pinned snapshot a blocked pair implies both flagged
          // endpoints (cross-snapshot comparisons would race republication).
          if (ref->BlockedPair(rec.user, rec.item)) {
            EXPECT_TRUE(ref->FlaggedUser(rec.user));
            EXPECT_TRUE(ref->FlaggedItem(rec.item));
          }
          (void)service.IsFlaggedUser(rec.user);
          (void)service.IsBlockedPair(rec.user, rec.item);
          i += 7;
        }
      });
    }

    for (size_t i = split; i < full.num_rows(); ++i) {
      Status pushed = service.IngestClick(full.row(arrival[i]));
      while (!pushed.ok() &&
             pushed.code() == StatusCode::kResourceExhausted) {
        std::this_thread::yield();
        pushed = service.IngestClick(full.row(arrival[i]));
      }
      ASSERT_TRUE(pushed.ok()) << pushed;
    }
    ASSERT_TRUE(service.Drain().ok());
    stop_readers.store(true, std::memory_order_release);
    readers.Wait();

    // Offline reference: one Run over the whole consolidated table.
    table::ClickTable consolidated = full;
    consolidated.ConsolidateDuplicates();
    const auto offline =
        core::RicdFramework(TinyFrameworkOptions()).Run(consolidated);
    ASSERT_TRUE(offline.ok()) << offline.status();

    const VerdictStore::ReadRef served = service.Verdicts();
    EXPECT_EQ(served->stats.applied, full.num_rows() - split);
    EXPECT_EQ(served->stats.rejected, 0u);
    const Status same =
        check::DiffVerdictSnapshot(*offline, consolidated, *served);
    EXPECT_TRUE(same.ok()) << same;
    EXPECT_GT(served->flagged_users.size(), 0u);

    ASSERT_TRUE(service.Shutdown().ok());
    ASSERT_TRUE(service.Shutdown().ok());  // idempotent
  }
}

// ---------------------------------------------------------------------------
// TCP front end
// ---------------------------------------------------------------------------

TEST(TcpServerTest, EndToEndQueryIngestStats) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(scenario->table).ok());
  TcpServer server(&service, TcpServer::Options{0, 2});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TcpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  const VerdictStore::ReadRef ref = service.Verdicts();
  ASSERT_GT(ref->flagged_users.size(), 0u);
  const table::UserId flagged = ref->flagged_users.front();
  auto verdict = client.QueryUser(flagged);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(verdict->flagged);
  EXPECT_EQ(verdict->risk, ref->UserRisk(flagged));
  EXPECT_EQ(verdict->epoch, ref->epoch);

  verdict = client.QueryUser(-987654321);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_FALSE(verdict->flagged);
  EXPECT_EQ(verdict->risk, 0.0);

  const auto [bu, bi] = ref->blocked_pairs.front();
  verdict = client.QueryPair(bu, bi);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(verdict->flagged);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, ref->epoch);
  EXPECT_EQ(stats->flagged_users, ref->flagged_users.size());
  EXPECT_EQ(stats->blocked_pairs, ref->blocked_pairs.size());
  EXPECT_GT(stats->stats.stream_edges, 0u);

  std::vector<table::ClickRecord> batch;
  for (size_t i = 0; i < 10; ++i) batch.push_back(scenario->table.row(i));
  const auto ack = client.Ingest(batch);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 10u);
  EXPECT_EQ(ack->rejected, 0u);
  ASSERT_TRUE(service.Drain().ok());
  stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->stats.applied, 10u);

  // A second connection is served by the handler pool.
  TcpClient second;
  ASSERT_TRUE(second.Connect(server.port()).ok());
  ASSERT_TRUE(second.Ping().ok());
  second.Disconnect();
  client.Disconnect();
  server.Stop();
  EXPECT_GE(server.connections_served(), 2u);
  ASSERT_TRUE(service.Shutdown().ok());
}

// METRICS end to end: with every request sampled, the exposition must show
// non-zero serve-path histograms, STATS must carry non-zero query
// quantiles, and sampled traces must land in the flight recorder
// section of the exposition text.
TEST(TcpServerTest, MetricsExpositionShowsServeActivity) {
  const uint64_t saved_sample = obs::TraceSampleEvery();
  obs::SetTraceSampleEvery(1);
  obs::FlightRecorder::Global().set_enabled(true);

  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(scenario->table).ok());
  TcpServer server(&service, TcpServer::Options{0, 2});
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  for (int i = 0; i < 8; ++i) {
    const auto verdict = client.QueryUser(scenario->table.user(
        static_cast<size_t>(i) % scenario->table.num_rows()));
    ASSERT_TRUE(verdict.ok()) << verdict.status();
  }

  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const std::string& text = *metrics;
  // Request counter reconciled at read time: present and non-zero.
  const std::string counter_line = "\nricd_serve_server_requests ";
  const size_t counter_at = text.find(counter_line);
  ASSERT_NE(counter_at, std::string::npos) << text;
  EXPECT_GT(std::strtoull(text.c_str() + counter_at + counter_line.size(),
                          nullptr, 10),
            0u);
  // Sampled latency histograms carry observations.
  const std::string hist_count = "ricd_serve_server_request_seconds_count ";
  const size_t hist_at = text.find(hist_count);
  ASSERT_NE(hist_at, std::string::npos) << text;
  EXPECT_GT(std::strtoull(text.c_str() + hist_at + hist_count.size(),
                          nullptr, 10),
            0u);
  EXPECT_NE(text.find("ricd_serve_request_query_seconds"), std::string::npos);
  // Sampled request traces surface in the flight-recorder section.
  EXPECT_NE(text.find("# flight"), std::string::npos);
  EXPECT_NE(text.find("request_trace"), std::string::npos);

  // STATS reports the same histograms as quantiles.
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->query_p50, 0.0);
  EXPECT_GE(stats->query_p99, stats->query_p50);

  client.Disconnect();
  server.Stop();
  ASSERT_TRUE(service.Shutdown().ok());
  obs::SetTraceSampleEvery(saved_sample);
}

TEST(TcpServerTest, UnknownOpcodeAndOversizedFrameAreRejected) {
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(table::ClickTable()).ok());
  TcpServer server(&service, TcpServer::Options{0, 1});
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Unknown opcode: the connection stays up and returns a kError frame.
  const std::string bogus = PayloadWriter(static_cast<OpCode>(99)).Frame();
  ASSERT_TRUE(WriteAll(fd, bogus).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload).ok());
  const Status decoded = DecodeError(payload);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);

  // Oversized frame: best-effort error reply, then the server hangs up.
  std::string huge_prefix(4, '\0');
  huge_prefix[3] = 0x7f;
  ASSERT_TRUE(WriteAll(fd, huge_prefix).ok());
  Status read = ReadFrame(fd, &payload);
  if (read.ok()) {
    EXPECT_EQ(DecodeError(payload).code(), StatusCode::kInvalidArgument);
    read = ReadFrame(fd, &payload);
  }
  EXPECT_EQ(read.code(), StatusCode::kIoError);

  const int rc = ::close(fd);
  EXPECT_EQ(rc, 0);
  server.Stop();
  ASSERT_TRUE(service.Shutdown().ok());
}

// The server's request decoding is as strict as the client's: an operand
// layout with a byte too many is a protocol error, not a silent truncation.
TEST(TcpServerTest, RequestWithTrailingBytesIsRejected) {
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(table::ClickTable()).ok());
  TcpServer server(&service, TcpServer::Options{0, 1});
  for (const std::string& frame :
       {EncodePing(), EncodeQueryUser(1), EncodeQueryItem(2),
        EncodeQueryPair(1, 2), EncodeStats(), EncodeMetricsRequest()}) {
    SCOPED_TRACE(testing::Message() << "opcode " << int{frame[4]});
    const std::string exact = server.HandleRequest(frame.substr(4));
    ASSERT_GT(exact.size(), 4u);
    EXPECT_NE(static_cast<uint8_t>(exact[4]),
              static_cast<uint8_t>(OpCode::kError));
    const std::string padded = server.HandleRequest(frame.substr(4) + '\0');
    EXPECT_EQ(DecodeError(padded.substr(4)).code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(service.Shutdown().ok());
}

// The telemetry cost model, checked without a wall clock: unsampled
// requests take no clock read and observe no histogram (bench_serving still
// reports the overhead ratio as a gauge).
TEST(TelemetryGateTest, UnsampledRequestsReadNoClockAndObserveNothing) {
  const uint64_t saved_sample = obs::TraceSampleEvery();
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  DetectionService service(TinyServeOptions());
  ASSERT_TRUE(service.Start(scenario->table).ok());
  // HandleRequest runs in-process on this thread; no socket is needed.
  TcpServer server(&service, TcpServer::Options{0, 1});

  const table::ClickRecord row = scenario->table.row(0);
  const std::vector<std::string> requests = {
      EncodePing(),
      EncodeQueryUser(row.user),
      EncodeQueryItem(row.item),
      EncodeQueryPair(row.user, row.item),
      EncodeIngest({row}),
  };
  const auto serve_each = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const std::string reply =
          server.HandleRequest(requests[i % requests.size()].substr(4));
      ASSERT_GT(reply.size(), 4u);
      ASSERT_NE(static_cast<uint8_t>(reply[4]),
                static_cast<uint8_t>(OpCode::kError));
    }
  };

  obs::SetTraceSampleEvery(0);  // no request is sampled
  uint64_t reads = WallTimer::ThreadClockReads();
  uint64_t observes = obs::Histogram::ThreadObserves();
  serve_each(1000);
  EXPECT_EQ(WallTimer::ThreadClockReads() - reads, 0u);
  EXPECT_EQ(obs::Histogram::ThreadObserves() - observes, 0u);

  // Sampled requests do show up in both hooks, so the zeros above are not
  // vacuous: each one reads the clock at least twice and observes at least
  // its request latency.
  obs::SetTraceSampleEvery(1);
  reads = WallTimer::ThreadClockReads();
  observes = obs::Histogram::ThreadObserves();
  serve_each(requests.size());
  EXPECT_GE(WallTimer::ThreadClockReads() - reads, 2 * requests.size());
  EXPECT_GE(obs::Histogram::ThreadObserves() - observes, requests.size());

  obs::SetTraceSampleEvery(saved_sample);
  ASSERT_TRUE(service.Shutdown().ok());
}

}  // namespace
}  // namespace ricd::serve
