#ifndef RICD_SERVE_DETECTION_SERVICE_H_
#define RICD_SERVE_DETECTION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "i2i/recommender.h"
#include "obs/metrics.h"
#include "ricd/framework.h"
#include "serve/ingest_queue.h"
#include "serve/verdict_store.h"
#include "table/click_table.h"
#include "window/click_window.h"

namespace ricd::serve {

/// Configuration of the online detection service. Environment knobs (read
/// by FromEnv): RICD_INGEST_BATCH (records per refresh) and the
/// RICD_WINDOW_* retention knobs.
struct ServeOptions {
  core::FrameworkOptions framework;

  /// Click-event queue capacity (rounded up to a power of two).
  size_t queue_capacity = 1 << 16;

  /// Size trigger: the refresh thread drains the queue and re-detects once
  /// this many records are pending.
  size_t ingest_batch = 2048;

  /// Time trigger: a partial batch is flushed after this many milliseconds
  /// even if the size trigger has not fired (0 = size trigger only).
  uint32_t max_batch_delay_ms = 50;

  /// Windowed retention (RICD_WINDOW_CLICKS / RICD_WINDOW_SECONDS). The
  /// defaults keep both bounds at 0 — unbounded, accumulate forever.
  window::WindowOptions window;

  /// Applies RICD_INGEST_BATCH and the RICD_WINDOW_* retention knobs on top
  /// of the defaults.
  static ServeOptions FromEnv();
};

/// The in-process serving façade: accepts click events without blocking,
/// answers verdict queries wait-free from the current VerdictSnapshot, and
/// republishes snapshots from a background refresh thread.
///
/// Every publish — Start, each refresh, ForceRebuild — is the same three
/// steps under state_mu_: append the drained rows to the ClickWindow, run
/// the offline core::RicdFramework::Run over the rows the window retains,
/// and publish a snapshot built from that result and those rows. So every
/// published snapshot equals an offline Run over the rows in its cut
/// (stats.applied streamed rows after the bootstrap table), retractions
/// included.
///
/// Threading model:
///  * any number of producer threads call IngestClick() (lock-free queue
///    push + one atomic counter);
///  * any number of query threads call IsFlaggedUser / IsFlaggedItem /
///    IsBlockedPair / Verdicts() (VerdictStore::Acquire — no mutexes);
///  * exactly one internal refresh thread drains the queue into the
///    window; Drain()/ForceRebuild()/Shutdown() coordinate with it via
///    mutexes that producers and queriers never touch.
class DetectionService {
 public:
  explicit DetectionService(ServeOptions options);
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Appends `initial` to the window at event-second 0, publishes the first
  /// snapshot and starts the refresh thread. Must be called once, before
  /// any ingest. An empty `initial` publishes an empty snapshot.
  Status Start(const table::ClickTable& initial) RICD_EXCLUDES(state_mu_);

  /// Producer API: enqueues one click event. Returns ResourceExhausted when
  /// the queue is full (explicit backpressure — the caller decides whether
  /// to retry, shed or surface the error) and FailedPrecondition when the
  /// service is not running. Never blocks. Events carry event-second 0
  /// (timeless legacy stream — time retention never expires them only if
  /// the clock stays at 0; mix timed and timeless ingest deliberately).
  Status IngestClick(const table::ClickRecord& record) {
    return IngestClickAt(record, 0);
  }

  /// As IngestClick, stamping the click with a logical event-second that
  /// drives windowed retention (seal spans, time eviction). Timestamps are
  /// producer-supplied — replay determinism requires the trace, not the
  /// wall clock, to own time.
  Status IngestClickAt(const table::ClickRecord& record, uint64_t event_ts);

  /// Wait-free query API — one snapshot pin per call, no locks.
  bool IsFlaggedUser(table::UserId u) const;
  bool IsFlaggedItem(table::ItemId v) const;
  bool IsBlockedPair(table::UserId u, table::ItemId v) const;

  /// Pins the whole current snapshot (batch queries, STATS).
  VerdictStore::ReadRef Verdicts() const { return store_.Acquire(); }

  /// A SlateFilter view over the live verdicts, for wiring into
  /// i2i::Recommender — each Allow* call pins the current snapshot.
  const i2i::SlateFilter& slate_filter() const { return filter_; }

  /// Serving-time filtered recommendation: the paper's intercept-before-I2I
  /// semantics on the query path (flagged items and blocked pairs never
  /// reach the slate; clean items backfill).
  std::vector<i2i::ItemScore> FilterRecommendations(
      const i2i::Recommender& recommender, graph::VertexId user,
      size_t k) const {
    return recommender.RecommendForUser(user, k, filter_);
  }

  /// Blocks until every record accepted so far has been applied and its
  /// snapshot published. Only meaningful while no producer keeps pushing.
  Status Drain() RICD_EXCLUDES(wake_mu_);

  /// One synchronous refresh on the caller's thread: re-runs detection over
  /// the rows the window retains now and publishes.
  Status ForceRebuild() RICD_EXCLUDES(state_mu_);

  /// Nothing runs in the background besides the refresh thread, so there
  /// is never a rebuild to wait for.
  Status WaitForRebuild() { return Status::Ok(); }

  /// Windowed-retention accounting sample (segments, retained/evicted
  /// rows, event-clock high watermark).
  window::WindowStats window_stats() const { return window_.stats(); }

  /// Graceful shutdown: stop accepting ingests, drain the queue, apply the
  /// final batch, stop the refresh thread. Idempotent.
  Status Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  IngestQueueStats queue_stats() const { return queue_.stats(); }

 private:
  /// SlateFilter implementation backed by the store.
  class VerdictFilter : public i2i::SlateFilter {
   public:
    explicit VerdictFilter(const VerdictStore* store) : store_(store) {}
    bool AllowItem(table::ItemId item) const override {
      return !store_->Acquire()->FlaggedItem(item);
    }
    bool AllowPair(table::UserId user, table::ItemId item) const override {
      return !store_->Acquire()->BlockedPair(user, item);
    }

   private:
    const VerdictStore* store_;
  };

  void RefreshLoop() RICD_EXCLUDES(state_mu_, wake_mu_);

  /// Runs detection over the rows the window retains and publishes the
  /// resulting snapshot.
  Status RefreshLocked() RICD_REQUIRES(state_mu_);

  /// Publishes `next`, running the serve validators when enabled.
  Status PublishLocked(std::shared_ptr<const VerdictSnapshot> next)
      RICD_REQUIRES(state_mu_);

  const ServeOptions options_;
  const core::RicdFramework framework_{options_.framework};
  IngestQueue queue_;    // unguarded: internally synchronized (lock-free MPSC)
  VerdictStore store_;   // unguarded: internally synchronized (RCU snapshots)
  VerdictFilter filter_{&store_};  // unguarded: stateless view over store_
  window::ClickWindow window_{options_.window};  // unguarded: internally
                                                 // synchronized (own mutex)

  /// Guards window appends and all snapshot construction/publication, so
  /// each publish sees one cut of the stream. Never touched by IngestClick
  /// or the query API.
  Mutex state_mu_;
  bool started_ RICD_GUARDED_BY(state_mu_) = false;
  uint64_t epoch_ RICD_GUARDED_BY(state_mu_) = 0;
  uint64_t batches_ RICD_GUARDED_BY(state_mu_) = 0;
  /// Streamed rows appended to the window (the published stats.applied).
  uint64_t applied_rows_ RICD_GUARDED_BY(state_mu_) = 0;
  std::shared_ptr<const VerdictSnapshot> last_published_
      RICD_GUARDED_BY(state_mu_);

  /// Refresh-thread coordination. applied_ counts records whose refresh
  /// finished; Drain() waits for applied_ == accepted_. wake_mu_ guards no
  /// data — it exists so wake_cv_/applied_cv_ waits have a mutex; the
  /// predicates read only the atomics below.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> applied_{0};
  /// Edge-trigger latch for the queue_high backpressure flight event
  /// (refresh thread only; atomic so tests may peek).
  std::atomic<bool> backpressure_high_{false};
  Mutex wake_mu_ RICD_ACQUIRED_AFTER(state_mu_);
  std::condition_variable wake_cv_;     // kicks the refresh thread
  std::condition_variable applied_cv_;  // signals Drain() waiters
  std::unique_ptr<ThreadPool> refresh_thread_;  // unguarded: created in
                                                // Start, reset in Shutdown
                                                // (already serialized)

  // Instruments, resolved once in the constructor (registry lookups take a
  // mutex) and immutable afterwards.
  obs::Counter* const ingest_accepted_;
  obs::Counter* const ingest_rejected_;
  obs::Counter* const batches_counter_;
  obs::Counter* const rebuilds_counter_;
  obs::Counter* const query_counter_;
  obs::Gauge* const queue_depth_gauge_;
  obs::Gauge* const epoch_gauge_;
  obs::Histogram* const queue_wait_hist_;
  obs::Histogram* const drain_batch_hist_;
  obs::Histogram* const refresh_hist_;
  obs::Histogram* const publish_hist_;
};

}  // namespace ricd::serve

#endif  // RICD_SERVE_DETECTION_SERVICE_H_
