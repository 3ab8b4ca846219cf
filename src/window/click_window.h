#ifndef RICD_WINDOW_CLICK_WINDOW_H_
#define RICD_WINDOW_CLICK_WINDOW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "table/click_record.h"
#include "table/click_table.h"

namespace ricd::window {

/// Configuration of the windowed click retention layer. Environment knobs
/// (read by FromEnv): RICD_WINDOW_CLICKS (count retention — at most this
/// many rows retained, enforced at segment granularity) and
/// RICD_WINDOW_SECONDS (time retention — sealed segments whose newest event
/// is more than this many event-seconds behind the high watermark are
/// evicted). 0 means "unbounded" for both, which degenerates to the legacy
/// accumulate-forever behavior bit-for-bit.
struct WindowOptions {
  /// Count retention: evict oldest sealed segments while the retained row
  /// count exceeds this. 0 = no count bound. The live (unsealed) segment is
  /// never evicted, so the standing bound is max_clicks + segment_clicks.
  uint64_t max_clicks = 0;

  /// Time retention: a sealed segment is evicted once
  /// `segment.max_ts + max_seconds < clock_high` — a segment whose newest
  /// event sits exactly at the boundary is KEPT (inclusive window). 0 = no
  /// time bound.
  uint64_t max_seconds = 0;

  /// Seal the live segment once it holds this many rows.
  uint64_t segment_clicks = 4096;

  /// Also seal once the live segment spans more than this many
  /// event-seconds (0 = count-triggered sealing only). Keeps time-based
  /// eviction granular under slow ingest.
  uint64_t segment_seconds = 0;

  /// Advisory exponential-decay half life for DecayedMass(). Purely
  /// observational — decay weights never enter the detection path, which is
  /// what keeps windowed-online output bit-identical to an offline run over
  /// the retained rows. 0 = no decay (mass == retained rows).
  double decay_half_life_seconds = 0;

  /// Applies RICD_WINDOW_CLICKS / RICD_WINDOW_SECONDS on top of defaults.
  static WindowOptions FromEnv();
};

/// One sealed, immutable run of clicks. Segments are handed out as
/// shared_ptr<const WindowSegment>, so snapshots stay valid (and cheap)
/// while the window seals and evicts underneath them.
struct WindowSegment {
  uint64_t seq = 0;     // seal order, strictly increasing from 0
  uint64_t min_ts = 0;  // oldest event-second in the segment
  uint64_t max_ts = 0;  // newest event-second in the segment
  table::ClickTable rows;
};

/// Accounting sample. appended == retained + evicted always holds (rows are
/// conserved: every appended row is either still retained or was evicted
/// with its segment); check::ValidateWindowStats audits this.
struct WindowStats {
  uint64_t appended_rows = 0;
  uint64_t retained_rows = 0;  // sealed-retained + live
  uint64_t live_rows = 0;
  uint64_t retained_segments = 0;  // sealed segments currently retained
  uint64_t sealed_segments = 0;    // ever sealed
  uint64_t evicted_segments = 0;
  uint64_t evicted_rows = 0;
  uint64_t clock_high = 0;  // high-watermark event-second observed
};

/// A frozen view of the window: the retained sealed segments plus a copy of
/// the live buffer. Plain struct (no lock, no back-reference) so validators
/// and readers can hold one without touching the window again.
struct WindowSnapshot {
  std::vector<std::shared_ptr<const WindowSegment>> segments;
  table::ClickTable live;
  uint64_t clock_high = 0;

  uint64_t rows() const {
    uint64_t n = live.num_rows();
    for (const auto& seg : segments) n += seg->rows.num_rows();
    return n;
  }

  /// Flattens retained rows (oldest segment first, live last) into one
  /// consolidated table — the exact input an offline bootstrap over "what
  /// the window retains" sees. Deterministic: segment order is seal order
  /// and ConsolidateDuplicates is a stable canonical sort+merge.
  table::ClickTable Materialize() const;
};

/// Ring of sealed click segments with deterministic count/time eviction.
///
/// The window is the service's standing source of truth: every publish
/// re-detects over the rows it retains. Ingest appends rows (with an event
/// timestamp carried out-of-band — ClickRecord itself has no time column),
/// the live segment seals at `segment_clicks`/`segment_seconds`, and
/// retention evicts whole sealed segments, oldest first. Eviction is a pure function of (options, append
/// sequence, timestamps) — no wall clock anywhere — so replaying the same
/// trace yields the same retained set on every run, which the
/// windowed≡offline differential test depends on.
///
/// Thread safety: internally synchronized with one Mutex. Append runs on the
/// single refresh thread in production, but Snapshot()/stats() may race it
/// from test/monitoring threads, so everything locks.
class ClickWindow {
 public:
  explicit ClickWindow(WindowOptions options = {});

  ClickWindow(const ClickWindow&) = delete;
  ClickWindow& operator=(const ClickWindow&) = delete;

  /// Appends one click at event-second `ts`. Advances the high watermark
  /// (monotone: a late event never moves the clock backwards), seals the
  /// live segment when a seal trigger fires, then applies eviction.
  void Append(const table::ClickRecord& record, uint64_t ts)
      RICD_EXCLUDES(mu_);

  /// Freezes the current retained state. O(segments) shared_ptr copies plus
  /// one copy of the live buffer.
  WindowSnapshot Snapshot() const RICD_EXCLUDES(mu_);

  /// Snapshot().Materialize() convenience.
  table::ClickTable MaterializeRetained() const RICD_EXCLUDES(mu_);

  WindowStats stats() const RICD_EXCLUDES(mu_);

  /// Advisory decayed mass: Σ over retained segments of
  /// rows · 2^-(age / half_life) where age = clock_high - segment.max_ts
  /// (live counts at full weight). With decay disabled this is exactly the
  /// retained row count. Exported as a gauge; never used for detection.
  double DecayedMass() const RICD_EXCLUDES(mu_);

  const WindowOptions& options() const { return options_; }

 private:
  void SealLiveLocked() RICD_REQUIRES(mu_);
  void EvictLocked() RICD_REQUIRES(mu_);
  void UpdateGaugesLocked() RICD_REQUIRES(mu_);
  double DecayedMassLocked() const RICD_REQUIRES(mu_);

  const WindowOptions options_;

  mutable Mutex mu_;
  std::vector<std::shared_ptr<const WindowSegment>> segments_
      RICD_GUARDED_BY(mu_);
  table::ClickTable live_ RICD_GUARDED_BY(mu_);
  uint64_t live_min_ts_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t live_max_ts_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t clock_high_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t appended_rows_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t sealed_rows_retained_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t evicted_segments_ RICD_GUARDED_BY(mu_) = 0;
  uint64_t evicted_rows_ RICD_GUARDED_BY(mu_) = 0;

  // Instruments, resolved once in the constructor (registry lookups take a
  // mutex) and immutable afterwards.
  obs::Counter* const seal_counter_;
  obs::Counter* const evict_segments_counter_;
  obs::Counter* const evict_rows_counter_;
  obs::Gauge* const segments_gauge_;
  obs::Gauge* const retained_rows_gauge_;
  obs::Gauge* const decayed_mass_gauge_;
};

}  // namespace ricd::window

#endif  // RICD_WINDOW_CLICK_WINDOW_H_
