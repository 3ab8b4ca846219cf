#ifndef RICD_OBS_FLIGHT_RECORDER_H_
#define RICD_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ricd::obs {

/// Categories of serve-plane events worth keeping for a post-mortem.
enum class FlightEventKind : uint32_t {
  kNone = 0,
  kPublish = 1,             // a = epoch, b = flagged users
  kBackpressure = 4,        // a = queue capacity, b = rejected total
  kValidatorViolation = 5,  // a = violation count, b = 0
  kRequestTrace = 6,        // a = request id, b = latency micros
  kShutdown = 7,            // a = final epoch, b = applied records
  kSegmentSeal = 8,         // a = segment seq, b = segment rows
  kSegmentEvict = 9,        // a = segment seq, b = segment rows
};

/// Human-readable tag for a kind ("publish", "backpressure", ...). Returns a
/// pointer to a string literal, so it is safe to call from a signal handler.
const char* FlightEventKindName(FlightEventKind kind) noexcept;

/// One recorded event. `detail` is a short NUL-padded annotation (span name,
/// violation summary); it is truncated, never allocated.
struct FlightEvent {
  uint64_t seq = 0;            // global ticket, monotonically increasing
  uint64_t timestamp_micros = 0;  // steady-clock micros since recorder start
  FlightEventKind kind = FlightEventKind::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
  char detail[24] = {};
};

/// Fixed-size lock-free multi-writer ring of FlightEvents.
///
/// Writers claim a global ticket with one fetch_add, then publish the
/// payload of slot `ticket % capacity` under a per-slot sequence marker:
/// the writer claims the slot by CAS-ing `marker` from the event it last
/// held (normally the previous lap's, `ticket + 1 - capacity`) to kBusy,
/// stores the payload fields (all plain atomics, relaxed), then
/// release-stores `marker` to `ticket + 1`. A writer that finds the slot
/// busy (an earlier lap still storing) or already holding a newer event
/// drops its own event and counts it in dropped(), so a preempted writer
/// that gets lapped can never finish over a published event, and a slot's
/// marker only moves forwards. Readers acquire-load the marker, copy the
/// payload, and re-check the marker; a slot whose marker changed mid-copy
/// (or is kBusy) is being rewritten and is skipped. Nothing blocks: a
/// stalled reader can at worst drop slots that were overwritten while it
/// was copying, which is the intended semantics of a flight recorder.
///
/// All payload fields are atomics accessed relaxed, so a torn read of a
/// slot being concurrently rewritten is detected by the marker re-check
/// rather than being a data race — this is what keeps TSan quiet.
class FlightRecorder {
 public:
  /// capacity must be a power of two; 1024 events ≈ 72 KiB.
  explicit FlightRecorder(size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder. Intentionally leaked, like MetricsRegistry.
  static FlightRecorder& Global();

  /// Records an event. Lock-free; safe from any thread. No-op while
  /// disabled.
  void Record(FlightEventKind kind, uint64_t a, uint64_t b,
              const char* detail = nullptr) noexcept;

  /// Copies out surviving events, oldest first. Best effort under
  /// concurrent writes: slots overwritten mid-copy are dropped.
  std::vector<FlightEvent> Dump() const;

  /// Renders Dump() as `# flight <seq> <micros> <kind> a=<a> b=<b> <detail>`
  /// lines (at most `max_events` newest events), the format appended to the
  /// METRICS exposition body.
  std::string DumpText(size_t max_events = 32) const;

  /// Async-signal-safe dump to a file descriptor via write(2) only: no
  /// allocation, no locks, no stdio. Used by the crash handler installed
  /// with InstallCrashDump().
  void DumpToFd(int fd) const noexcept;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);  // order: advisory on/off flag; stale reads only delay the toggle
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);  // order: advisory flag read; exactness not required
  }

  /// Total events ever recorded (including overwritten and dropped ones).
  uint64_t total_recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);  // order: monotonic stat; readers tolerate a slightly stale count
  }

  /// Events dropped because their slot was still busy with an earlier lap's
  /// writer (or already held a newer event) when they tried to claim it.
  uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);  // order: monotonic stat; readers tolerate a slightly stale count
  }

  /// Test hook: Record calls `hook(arg, ticket)` after claiming its slot and
  /// storing part of the payload, before the rest of the payload and the
  /// publish — the window in which a writer can be preempted and lapped.
  /// Set it before any concurrent use; nullptr removes it.
  using PreemptHook = void (*)(void* arg, uint64_t ticket);
  void SetPreemptHookForTesting(PreemptHook hook, void* arg) noexcept {
    preempt_hook_ = hook;
    preempt_arg_ = arg;
  }

  size_t capacity() const noexcept { return slots_.size(); }

 private:
  // Marker protocol: kEmpty = never written; kBusy = writer mid-store;
  // otherwise marker == ticket + 1 of the event currently in the slot.
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kBusy = ~uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<uint64_t> marker{kEmpty};
    std::atomic<uint64_t> timestamp_micros{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    // detail packed as three little-endian words so the payload stays
    // all-atomic (see class comment).
    std::array<std::atomic<uint64_t>, 3> detail_words{};
  };

  // Returns true if the slot held a stable event, copied into *out.
  bool ReadSlot(const Slot& slot, FlightEvent* out) const noexcept;

  uint64_t NowMicros() const noexcept;

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  PreemptHook preempt_hook_ = nullptr;  // test-only; set before concurrent use
  void* preempt_arg_ = nullptr;
  uint64_t start_micros_;  // steady-clock origin, set once in the ctor
};

/// Installs SIGABRT/SIGSEGV handlers (SA_RESETHAND) that dump the global
/// flight recorder to stderr and re-raise. Idempotent.
void InstallCrashDump();

}  // namespace ricd::obs

#endif  // RICD_OBS_FLIGHT_RECORDER_H_
