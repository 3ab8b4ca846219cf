#include "serve/detection_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "check/diff_result.h"
#include "check/validate.h"
#include "check/validate_serve.h"
#include "check/validate_window.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ricd::serve {
namespace {

/// Copies the flagged ids of `result` with their risks into `out`, sorted
/// by id, and lists the rows of `retained` whose user and item are both
/// flagged as blocked pairs. `retained` is consolidated — sorted by (user,
/// item) — so each flagged user's rows are one range, found by binary
/// search, and the pairs come out sorted too.
void FillVerdicts(const core::FrameworkResult& result,
                  const table::ClickTable& retained, VerdictSnapshot* out) {
  std::vector<std::pair<table::UserId, double>> users;
  users.reserve(result.ranked.users.size());
  for (const core::RankedUser& u : result.ranked.users) {
    users.emplace_back(u.external_id, u.risk);
  }
  std::sort(users.begin(), users.end());
  for (const auto& [u, risk] : users) {
    out->flagged_users.push_back(u);
    out->user_risks.push_back(risk);
  }
  std::vector<std::pair<table::ItemId, double>> items;
  items.reserve(result.ranked.items.size());
  for (const core::RankedItem& v : result.ranked.items) {
    items.emplace_back(v.external_id, v.risk);
  }
  std::sort(items.begin(), items.end());
  for (const auto& [v, risk] : items) {
    out->flagged_items.push_back(v);
    out->item_risks.push_back(risk);
  }
  const std::vector<table::UserId>& row_users = retained.user_column();
  auto from = row_users.begin();
  for (const table::UserId u : out->flagged_users) {
    const auto [first, last] = std::equal_range(from, row_users.end(), u);
    for (auto it = first; it != last; ++it) {
      const table::ItemId v = retained.item(
          static_cast<size_t>(it - row_users.begin()));
      if (out->FlaggedItem(v)) out->blocked_pairs.emplace_back(u, v);
    }
    from = last;
  }
}

}  // namespace

DetectionService::DetectionService(ServeOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      ingest_accepted_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeIngestAccepted)),
      ingest_rejected_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeIngestRejected)),
      batches_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeIngestBatches)),
      rebuilds_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeRebuilds)),
      query_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeQueries)),
      queue_depth_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kServeQueueDepth)),
      epoch_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kServeEpoch)),
      queue_wait_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeQueueWaitSeconds)),
      drain_batch_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeDrainBatchSeconds)),
      refresh_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeRefreshSeconds)),
      publish_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServePublishSeconds)) {}

DetectionService::~DetectionService() { (void)Shutdown(); }

Status DetectionService::Start(const table::ClickTable& initial) {
  MutexLock lock(state_mu_);
  if (started_) {
    return Status::FailedPrecondition("DetectionService already started");
  }
  RICD_TRACE_SPAN("serve.bootstrap");
  // The bootstrap rows enter the window at event-second 0 — the oldest
  // possible stamp, so time retention ages them out first once producers
  // advance the event clock.
  for (size_t i = 0; i < initial.num_rows(); ++i) {
    window_.Append(initial.row(i), 0);  // bounded: window retention evicts
  }
  RICD_RETURN_IF_ERROR(RefreshLocked());
  started_ = true;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  refresh_thread_ = std::make_unique<ThreadPool>(1);
  refresh_thread_->Submit([this] { RefreshLoop(); });
  return Status::Ok();
}

Status DetectionService::IngestClickAt(const table::ClickRecord& record,
                                       uint64_t event_ts) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("DetectionService not running");
  }
  Status status = queue_.Push(record, event_ts);
  if (!status.ok()) {
    ingest_rejected_->Add(1);
    // A refusal storm is one state change: only a refusal that opens a
    // backpressure episode records it (see RefreshLoop).
    if (!backpressure_high_.exchange(true, std::memory_order_relaxed)) {  // order: episode latch shared with producers; exchange elects one recorder, no data hangs off it
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kBackpressure, queue_.capacity(),
          queue_.stats().rejected, "queue_full");
    }
    return status;
  }
  ingest_accepted_->Add(1);
  const uint64_t accepted =
      accepted_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (idle_.load(std::memory_order_seq_cst) &&
      idle_.exchange(false, std::memory_order_seq_cst)) {
    // The refresh thread sleeps with no timeout and this is the first click
    // since: wake it under wake_mu_, which it holds from its check to its
    // wait, so the wakeup cannot fall between the two.
    MutexLock lock(wake_mu_);
    wake_cv_.notify_one();
  } else if (PendingClicks(accepted,
                           applied_.load(std::memory_order_acquire)) >=
             options_.ingest_batch) {
    // Size trigger hit — cut the refresh thread's rest short. The rest is
    // timed, so a notify that misses it costs at most what is left of it.
    wake_cv_.notify_one();
  }
  return Status::Ok();
}

bool DetectionService::IsFlaggedUser(table::UserId u) const {
  query_counter_->Add(1);
  return store_.Acquire()->FlaggedUser(u);
}

bool DetectionService::IsFlaggedItem(table::ItemId v) const {
  query_counter_->Add(1);
  return store_.Acquire()->FlaggedItem(v);
}

bool DetectionService::IsBlockedPair(table::UserId u, table::ItemId v) const {
  query_counter_->Add(1);
  return store_.Acquire()->BlockedPair(u, v);
}

void DetectionService::RefreshLoop() {
  std::vector<table::ClickRecord> pending;
  pending.reserve(options_.ingest_batch);
  std::vector<double> queue_waits;
  queue_waits.reserve(options_.ingest_batch);
  std::vector<uint64_t> event_ts;
  event_ts.reserve(options_.ingest_batch);
  const auto rest = std::chrono::milliseconds(options_.min_refresh_gap_ms);
  const auto pending_clicks = [this] {
    return PendingClicks(accepted_.load(std::memory_order_seq_cst),
                         applied_.load(std::memory_order_acquire));
  };
  const auto ready = [&] {
    return stop_.load(std::memory_order_acquire) || pending_clicks() > 0;
  };
  // Start's bootstrap publish begins the first rest.
  auto rest_end = std::chrono::steady_clock::now() + rest;
  while (true) {
    {
      MutexLock lock(wake_mu_);
      // The rest: no refresh before rest_end unless a full batch is pending
      // or Shutdown stops the service.
      wake_cv_.wait_until(lock.native(), rest_end, [&] {
        return stop_.load(std::memory_order_acquire) ||
               pending_clicks() >= options_.ingest_batch;
      });
      // Rested: refresh at once if anything is pending, else sleep with no
      // timeout. The latch is set before the check that precedes each
      // sleep, so a producer whose click that check missed finds it set and
      // wakes this thread (IngestClickAt).
      while (!ready()) {
        idle_.store(true, std::memory_order_seq_cst);
        if (!ready()) wake_cv_.wait(lock.native());
        idle_.store(false, std::memory_order_relaxed);  // order: latch clear under wake_mu_; the loop re-sets it before any further check and sleep
      }
    }
    const bool stopping = stop_.load(std::memory_order_acquire);
    pending.clear();
    queue_waits.clear();
    event_ts.clear();
    {
      RICD_TRACE_SPAN("serve.drain_batch");
      ScopedTimer<obs::Histogram> drain_timer(drain_batch_hist_);
      queue_.PopBatch(&pending, options_.ingest_batch, &queue_waits, &event_ts);
    }
    for (const double wait : queue_waits) queue_wait_hist_->Observe(wait);
    const uint64_t depth = queue_.depth();
    queue_depth_gauge_->Set(static_cast<double>(depth));
    // Backpressure telemetry, one flight event per episode: whichever of
    // this thread (the queue crossing half full, so a stall shows before
    // producers see ResourceExhausted) or a refused push in IngestClickAt
    // sets the latch first records it. The latch re-arms below a quarter.
    if (depth >= queue_.capacity() / 2) {
      if (!backpressure_high_.exchange(true, std::memory_order_relaxed)) {  // order: episode latch shared with producers; exchange elects one recorder, no data hangs off it
        obs::FlightRecorder::Global().Record(
            obs::FlightEventKind::kBackpressure, queue_.capacity(),
            queue_.stats().rejected, "queue_high");
      }
    } else if (depth < queue_.capacity() / 4) {
      backpressure_high_.store(false, std::memory_order_relaxed);  // order: episode latch re-arm; producers only read it through exchange, no data published
    }
    if (check::ValidationEnabled()) {
      // Audited here — on the single consumer thread — because that is the
      // one vantage point where popped_ is frozen and the depth <= capacity
      // bound is exact (see IngestQueue::stats()).
      const Status accounting = check::ValidateIngestAccounting(
          queue_.stats(), /*expect_quiescent=*/false);
      if (!accounting.ok()) {
        RICD_LOG(ERROR) << "serve queue accounting: " << accounting.ToString();
      }
    }
    if (!pending.empty()) {
      Status status;
      {
        MutexLock lock(state_mu_);
        // The rows, the applied count and the detection run share one
        // critical section, so every publish reports exactly the cut it ran
        // over — even when ForceRebuild publishes from another thread.
        for (size_t i = 0; i < pending.size(); ++i) {
          window_.Append(  // bounded: window retention evicts
              pending[i], i < event_ts.size() ? event_ts[i] : 0);
        }
        applied_rows_ += pending.size();
        ++batches_;
        batches_counter_->Add(1);
        if (check::ValidationEnabled()) {
          const Status window_ok =
              check::ValidateWindowStats(window_.stats(), options_.window);
          if (!window_ok.ok()) {
            RICD_LOG(ERROR) << "serve window accounting: "
                            << window_ok.ToString();
          }
        }
        status = RefreshLocked();
      }
      // A failed refresh must not wedge Drain() forever: the records are
      // consumed from the queue and sit in the window either way, so the
      // next refresh covers them.
      if (!status.ok()) {
        RICD_LOG(ERROR) << "serve refresh failed: " << status.ToString();
      }
      applied_.fetch_add(pending.size(), std::memory_order_acq_rel);
      {
        // Drain holds wake_mu_ from its check to its wait.
        MutexLock lock(wake_mu_);
        applied_cv_.notify_all();
      }
      rest_end = std::chrono::steady_clock::now() + rest;
      continue;
    }
    if (stopping) break;
    // A click is counted but the queue's next cell is not yet published:
    // its producer is between claiming the cell and writing it.
    std::this_thread::yield();
  }
  // Wakes the Drain callers that Shutdown cut short (running_ is false).
  MutexLock lock(wake_mu_);
  applied_cv_.notify_all();
}

Status DetectionService::RefreshLocked() {
  RICD_TRACE_SPAN("serve.refresh");
  ScopedTimer<obs::Histogram> timer(refresh_hist_);
  const table::ClickTable retained = window_.MaterializeRetained();
  core::FrameworkResult result;
  if (!retained.empty()) {
    RICD_ASSIGN_OR_RETURN(result, framework_.Run(retained));
  }

  auto snapshot = std::make_shared<VerdictSnapshot>();
  snapshot->epoch = ++epoch_;
  FillVerdicts(result, retained, snapshot.get());
  const IngestQueueStats queue_stats = queue_.stats();
  snapshot->stats.accepted = queue_stats.pushed;
  snapshot->stats.rejected = queue_stats.rejected;
  snapshot->stats.applied = applied_rows_;
  snapshot->stats.batches = batches_;
  snapshot->stats.stream_edges = retained.num_rows();
  snapshot->stats.stream_clicks = retained.TotalClicks();
  const window::WindowStats wstats = window_.stats();
  snapshot->stats.window_retained_rows = wstats.retained_rows;
  snapshot->stats.window_segments = wstats.retained_segments;
  snapshot->stats.window_evicted_segments = wstats.evicted_segments;
  snapshot->stats.window_evicted_rows = wstats.evicted_rows;
  snapshot->stats.window_clock_high = wstats.clock_high;

  if (check::ValidationEnabled()) {
    const Status same = check::DiffVerdictSnapshot(result, retained, *snapshot);
    if (!same.ok()) {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kValidatorViolation, snapshot->epoch, 0,
          "verdict_diff");
      return same;
    }
  }
  rebuilds_counter_->Add(1);
  return PublishLocked(std::move(snapshot));
}

Status DetectionService::PublishLocked(
    std::shared_ptr<const VerdictSnapshot> next) {
  RICD_TRACE_SPAN("serve.publish");
  ScopedTimer<obs::Histogram> timer(publish_hist_);
  if (check::ValidationEnabled()) {
    Status valid = check::ValidateVerdictSnapshot(*next);
    if (valid.ok() && last_published_ != nullptr) {
      valid = check::ValidateVerdictTransition(*last_published_, *next);
    }
    if (!valid.ok()) {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kValidatorViolation, next->epoch, 0,
          "verdict_validator");
      return valid;
    }
  }
  const uint64_t epoch = next->epoch;
  const uint64_t flagged_users = next->flagged_users.size();
  epoch_gauge_->Set(static_cast<double>(epoch));
  last_published_ = next;
  store_.Publish(std::move(next));
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kPublish, epoch,
                                       flagged_users, "publish");
  return Status::Ok();
}

Status DetectionService::Drain() {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("DetectionService not running");
  }
  const uint64_t target = accepted_.load(std::memory_order_acquire);
  MutexLock lock(wake_mu_);
  applied_cv_.wait(lock.native(), [this, target] {
    return applied_.load(std::memory_order_acquire) >= target ||
           !running_.load(std::memory_order_acquire);
  });
  return Status::Ok();
}

Status DetectionService::ForceRebuild() {
  MutexLock lock(state_mu_);
  if (!started_) {
    return Status::FailedPrecondition("DetectionService not started");
  }
  return RefreshLocked();
}

Status DetectionService::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::Ok();  // idempotent
  }
  // Producers are refused from here on (running_ is false); let the refresh
  // thread drain what was already accepted, then stop it.
  stop_.store(true, std::memory_order_release);
  {
    // Under wake_mu_, which the refresh thread holds from its check of
    // stop_ to its wait.
    MutexLock lock(wake_mu_);
    wake_cv_.notify_one();
  }
  refresh_thread_->Wait();
  refresh_thread_.reset();
  queue_depth_gauge_->Set(static_cast<double>(queue_.depth()));
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kShutdown, store_.Acquire()->epoch,
      applied_.load(std::memory_order_acquire), "shutdown");
  if (check::ValidationEnabled()) {
    RICD_RETURN_IF_ERROR(check::ValidateIngestAccounting(
        queue_.stats(), /*expect_quiescent=*/true));
  }
  return Status::Ok();
}

}  // namespace ricd::serve
