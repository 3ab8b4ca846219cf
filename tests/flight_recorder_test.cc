// Flight recorder (src/obs/flight_recorder) coverage: ring semantics,
// wrap-around, the seqlock-per-slot read protocol under concurrent writers,
// and signal-safe fd dumps.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace ricd::obs {
namespace {

TEST(FlightRecorderTest, RecordsAndDumpsOldestFirst) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kPublish, 1, 10, "first");
  recorder.Record(FlightEventKind::kSegmentSeal, 2, 20, "second");
  recorder.Record(FlightEventKind::kBackpressure, 3, 30, nullptr);

  const std::vector<FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kPublish);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 10u);
  EXPECT_STREQ(events[0].detail, "first");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_STREQ(events[1].detail, "second");
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_STREQ(events[2].detail, "");
  EXPECT_EQ(recorder.total_recorded(), 3u);
}

TEST(FlightRecorderTest, WrapKeepsNewestCapacityEvents) {
  FlightRecorder recorder(4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kPublish, i, 0, nullptr);
  }
  const std::vector<FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].a, 6 + i);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(5);
  EXPECT_EQ(recorder.capacity(), 8u);
  FlightRecorder one(1);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder recorder(8);
  recorder.set_enabled(false);
  recorder.Record(FlightEventKind::kPublish, 1, 2, "dropped");
  EXPECT_TRUE(recorder.Dump().empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
  recorder.set_enabled(true);
  recorder.Record(FlightEventKind::kPublish, 1, 2, "kept");
  EXPECT_EQ(recorder.Dump().size(), 1u);
}

TEST(FlightRecorderTest, LongDetailIsTruncatedNotOverrun) {
  FlightRecorder recorder(2);
  const std::string long_detail(100, 'x');
  recorder.Record(FlightEventKind::kValidatorViolation, 0, 0,
                  long_detail.c_str());
  const std::vector<FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 1u);
  // detail is a NUL-terminated 24-byte field: at most 23 payload chars.
  EXPECT_EQ(std::strlen(events[0].detail), sizeof(events[0].detail) - 1);
  EXPECT_EQ(std::string(events[0].detail), std::string(23, 'x'));
}

TEST(FlightRecorderTest, DumpTextRendersFlightLines) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kBackpressure, 128, 8000, "queue_high");
  recorder.Record(FlightEventKind::kShutdown, 5, 42, "shutdown");
  const std::string text = recorder.DumpText();
  EXPECT_NE(text.find("# flight 0 "), std::string::npos);
  EXPECT_NE(text.find("backpressure"), std::string::npos);
  EXPECT_NE(text.find("a=128 b=8000 queue_high"), std::string::npos);
  EXPECT_NE(text.find("shutdown"), std::string::npos);

  // max_events keeps only the newest lines.
  const std::string capped = recorder.DumpText(1);
  EXPECT_EQ(capped.find("backpressure"), std::string::npos);
  EXPECT_NE(capped.find("shutdown"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFdWritesHeaderAndEvents) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kPublish, 7, 9, "pipe");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  recorder.DumpToFd(fds[1]);
  ASSERT_EQ(::close(fds[1]), 0);
  std::string dumped;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    dumped.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(::close(fds[0]), 0);
  EXPECT_NE(dumped.find("ricd flight recorder dump"), std::string::npos);
  EXPECT_NE(dumped.find("publish"), std::string::npos);
  EXPECT_NE(dumped.find("a=7 b=9 pipe"), std::string::npos);
}

TEST(FlightRecorderTest, EveryKindHasAName) {
  for (uint32_t k = 0; k <= 7; ++k) {
    const char* name = FlightEventKindName(static_cast<FlightEventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
  }
  // Unknown values must still render something signal-safe.
  EXPECT_NE(FlightEventKindName(static_cast<FlightEventKind>(255)), nullptr);
}

// Four writers hammer a 16-slot ring (constant wrap pressure) while a
// reader dumps it in a loop. Writers tag each event with a = writer id,
// b = i and a detail that also encodes the writer, so a torn slot (fields
// from two different writes) is detectable in the dump; a slot's seq must
// also never move backwards between dumps.
void ExpectConcurrentWritersNeverTear(FlightRecorder& recorder) {
  constexpr int kWriters = 4;
  constexpr uint64_t kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};

  ThreadPool writers(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.Submit([&recorder, w] {
      char detail[8];
      detail[0] = static_cast<char>('A' + w);
      detail[1] = '\0';
      for (uint64_t i = 0; i < kEventsPerWriter; ++i) {
        recorder.Record(FlightEventKind::kPublish,
                        static_cast<uint64_t>(w), i, detail);
      }
    });
  }
  std::thread reader([&] {
    std::vector<uint64_t> newest_in_slot(recorder.capacity(), 0);
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<FlightEvent> events = recorder.Dump();
      uint64_t last_seq = 0;
      bool first = true;
      for (const FlightEvent& ev : events) {
        ASSERT_EQ(ev.kind, FlightEventKind::kPublish);
        ASSERT_LT(ev.a, static_cast<uint64_t>(kWriters));
        ASSERT_LT(ev.b, kEventsPerWriter);
        ASSERT_EQ(ev.detail[0], static_cast<char>('A' + ev.a));
        if (!first) {
          ASSERT_GT(ev.seq, last_seq);
        }
        first = false;
        last_seq = ev.seq;
        uint64_t& newest = newest_in_slot[ev.seq & (recorder.capacity() - 1)];
        ASSERT_GE(ev.seq, newest);
        newest = ev.seq;
      }
    }
  });
  writers.Wait();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(recorder.total_recorded(),
            static_cast<uint64_t>(kWriters) * kEventsPerWriter);
  EXPECT_LT(recorder.dropped(), recorder.total_recorded());
  EXPECT_EQ(recorder.Dump().size(), recorder.capacity());
}

TEST(FlightRecorderTest, ConcurrentWritersNeverProduceTornEvents) {
  FlightRecorder recorder(16);
  ExpectConcurrentWritersNeverTear(recorder);
}

TEST(FlightRecorderTest, ConcurrentWritersYieldingMidPayloadNeverTear) {
  // Every writer yields inside its claimed slot, so writers are routinely
  // descheduled mid-payload while the others lap the ring.
  FlightRecorder recorder(16);
  recorder.SetPreemptHookForTesting(
      [](void*, uint64_t) { std::this_thread::yield(); }, nullptr);
  ExpectConcurrentWritersNeverTear(recorder);
}

// Deterministic preemption: on a one-slot ring the hook runs a complete
// second Record inside the first one, after writer 0 has stored part of its
// payload — writer 0 is preempted and lapped by writer 1 on its own slot.
// The lapping writer must find the slot busy and drop its event; writing
// anyway would leave writer 0 to finish over it (a torn a/b/detail mix)
// and publish an older seq than the one a reader already saw.
TEST(FlightRecorderTest, LappedWriterCannotTearOrRewindAPreemptedSlot) {
  FlightRecorder recorder(1);
  struct Lap {
    FlightRecorder* recorder;
    std::vector<FlightEvent> seen_while_preempted;
  } lap{&recorder, {}};
  recorder.SetPreemptHookForTesting(
      [](void* arg, uint64_t ticket) {
        auto* l = static_cast<Lap*>(arg);
        if (ticket != 0) return;
        l->recorder->Record(FlightEventKind::kSegmentEvict, 1, 100, "B");
        l->seen_while_preempted = l->recorder->Dump();
      },
      &lap);
  recorder.Record(FlightEventKind::kPublish, 0, 7, "A");
  recorder.SetPreemptHookForTesting(nullptr, nullptr);

  const std::vector<FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 1u);
  const FlightEvent& ev = events[0];
  EXPECT_EQ(ev.seq, 0u);
  EXPECT_EQ(ev.kind, FlightEventKind::kPublish);
  EXPECT_EQ(ev.a, 0u);
  EXPECT_EQ(ev.b, 7u);
  EXPECT_STREQ(ev.detail, "A");
  for (const FlightEvent& earlier : lap.seen_while_preempted) {
    EXPECT_LE(earlier.seq, ev.seq) << "slot marker moved backwards";
  }
  EXPECT_EQ(recorder.dropped(), 1u);
  EXPECT_EQ(recorder.total_recorded(), 2u);

  // Once the slot is published again, the next lap claims it normally.
  recorder.Record(FlightEventKind::kShutdown, 2, 0, "C");
  const std::vector<FlightEvent> after = recorder.Dump();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].seq, 2u);
  EXPECT_STREQ(after[0].detail, "C");
  EXPECT_EQ(recorder.dropped(), 1u);
}

}  // namespace
}  // namespace ricd::obs
