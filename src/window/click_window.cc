#include "window/click_window.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ricd::window {
namespace {

/// Merges two consolidated tables into one. A pair present in both gets the
/// saturating sum ConsolidateDuplicates would give it: saturating addition
/// of non-negative counts is associative, so merging consolidated parts
/// equals consolidating their concatenation.
table::ClickTable MergeConsolidated(const table::ClickTable& a,
                                    const table::ClickTable& b) {
  constexpr uint64_t kMaxClicks =
      std::numeric_limits<table::ClickCount>::max();
  table::ClickTable out;
  out.Reserve(a.num_rows() + b.num_rows());
  size_t i = 0;
  size_t j = 0;
  while (i < a.num_rows() && j < b.num_rows()) {
    if (a.user(i) != b.user(j)) {
      out.Append(a.user(i) < b.user(j) ? a.row(i++) : b.row(j++));
    } else if (a.item(i) != b.item(j)) {
      out.Append(a.item(i) < b.item(j) ? a.row(i++) : b.row(j++));
    } else {
      const uint64_t sum = static_cast<uint64_t>(a.clicks(i)) + b.clicks(j);
      out.Append(a.user(i), a.item(i),
                 static_cast<table::ClickCount>(std::min(sum, kMaxClicks)));
      ++i;
      ++j;
    }
  }
  for (; i < a.num_rows(); ++i) out.Append(a.row(i));
  for (; j < b.num_rows(); ++j) out.Append(b.row(j));
  return out;
}

}  // namespace

table::ClickTable WindowSnapshot::Materialize() const {
  table::ClickTable out;
  out.Reserve(rows());
  for (const auto& seg : segments) out.AppendTable(seg->rows);
  out.AppendTable(live);
  out.ConsolidateDuplicates();
  return out;
}

ClickWindow::ClickWindow(WindowOptions options)
    : options_(options),
      seal_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kWindowSealSegmentsTotal)),
      evict_segments_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kWindowEvictSegmentsTotal)),
      evict_rows_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kWindowEvictRowsTotal)),
      segments_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kWindowRetainedSegments)),
      retained_rows_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kWindowRetainedRows)),
      sealed_run_rebuilds_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kWindowSealedRunRebuildsTotal)) {}

void ClickWindow::Append(const table::ClickRecord& record, uint64_t ts) {
  MutexLock lock(mu_);
  if (ts > clock_high_) clock_high_ = ts;
  if (live_.empty()) {
    live_min_ts_ = ts;
    live_max_ts_ = ts;
  } else {
    if (ts < live_min_ts_) live_min_ts_ = ts;
    if (ts > live_max_ts_) live_max_ts_ = ts;
  }
  live_.Append(record);
  ++appended_rows_;
  const bool count_seal = options_.segment_clicks > 0 &&
                          live_.num_rows() >= options_.segment_clicks;
  const bool time_seal = options_.segment_seconds > 0 &&
                         live_max_ts_ - live_min_ts_ >= options_.segment_seconds;
  if (count_seal || time_seal) SealLiveLocked();
  EvictLocked();
  UpdateGaugesLocked();
}

void ClickWindow::SealLiveLocked() {
  if (live_.empty()) return;
  auto seg = std::make_shared<WindowSegment>();
  seg->seq = next_seq_++;
  seg->min_ts = live_min_ts_;
  seg->max_ts = live_max_ts_;
  seg->rows = std::move(live_);
  sealed_rows_retained_ += seg->rows.num_rows();
  seal_counter_->Add(1);
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kSegmentSeal,
                                       seg->seq, seg->rows.num_rows(), "seal");
  segments_.push_back(std::move(seg));
  ++sealed_version_;
  live_ = table::ClickTable();
  live_min_ts_ = 0;
  live_max_ts_ = 0;
}

void ClickWindow::EvictLocked() {
  size_t evict = 0;
  // Time rule first: a sealed segment expires when its newest event has
  // fallen strictly more than max_seconds behind the high watermark (a
  // segment exactly at the boundary is kept). Only a prefix is evicted —
  // the scan stops at the first unexpired segment — which is conservative
  // when events arrive out of order (a late-heavy older segment shields
  // younger-stamped ones) and keeps eviction a pure prefix drop.
  if (options_.max_seconds > 0) {
    while (evict < segments_.size() &&
           segments_[evict]->max_ts + options_.max_seconds < clock_high_) {
      ++evict;
    }
  }
  // Count rule: keep evicting oldest sealed segments while the retained row
  // count (sealed + live) still exceeds the bound. The live segment is never
  // evicted, so retention never exceeds max_clicks + segment_clicks.
  if (options_.max_clicks > 0) {
    uint64_t retained = sealed_rows_retained_ + live_.num_rows();
    size_t i = 0;
    for (; i < evict; ++i) retained -= segments_[i]->rows.num_rows();
    while (evict < segments_.size() && retained > options_.max_clicks) {
      retained -= segments_[evict]->rows.num_rows();
      ++evict;
    }
  }
  if (evict == 0) return;
  for (size_t i = 0; i < evict; ++i) {
    const WindowSegment& seg = *segments_[i];
    sealed_rows_retained_ -= seg.rows.num_rows();
    evicted_rows_ += seg.rows.num_rows();
    ++evicted_segments_;
    evict_segments_counter_->Add(1);
    evict_rows_counter_->Add(seg.rows.num_rows());
    obs::FlightRecorder::Global().Record(obs::FlightEventKind::kSegmentEvict,
                                         seg.seq, seg.rows.num_rows(),
                                         "evict");
  }
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<ptrdiff_t>(evict));
  ++sealed_version_;
}

void ClickWindow::UpdateGaugesLocked() {
  segments_gauge_->Set(static_cast<double>(segments_.size()));
  retained_rows_gauge_->Set(
      static_cast<double>(sealed_rows_retained_ + live_.num_rows()));
}

WindowSnapshot ClickWindow::Snapshot() const {
  MutexLock lock(mu_);
  WindowSnapshot snap;
  snap.segments = segments_;
  snap.live = live_;
  snap.clock_high = clock_high_;
  return snap;
}

table::ClickTable ClickWindow::MaterializeRetained() const {
  RICD_TRACE_SPAN("window.materialize");
  std::shared_ptr<const table::ClickTable> sealed;
  table::ClickTable live;
  {
    MutexLock lock(mu_);
    if (sealed_run_version_ != sealed_version_) {
      // Drop the stale run first so it and its replacement never coexist.
      sealed_run_.reset();
      auto run = std::make_shared<table::ClickTable>();
      run->Reserve(sealed_rows_retained_);
      for (const auto& seg : segments_) run->AppendTable(seg->rows);
      run->ConsolidateDuplicates();
      sealed_run_ = std::move(run);
      sealed_run_version_ = sealed_version_;
      sealed_run_rebuilds_counter_->Add(1);
    }
    sealed = sealed_run_;
    live = live_;
  }
  live.ConsolidateDuplicates();
  return MergeConsolidated(*sealed, live);
}

WindowStats ClickWindow::stats() const {
  MutexLock lock(mu_);
  WindowStats s;
  s.appended_rows = appended_rows_;
  s.live_rows = live_.num_rows();
  s.retained_rows = sealed_rows_retained_ + live_.num_rows();
  s.retained_segments = segments_.size();
  s.sealed_segments = next_seq_;
  s.evicted_segments = evicted_segments_;
  s.evicted_rows = evicted_rows_;
  s.clock_high = clock_high_;
  return s;
}

}  // namespace ricd::window
