#include "online.h"

#include <algorithm>
#include <string>
#include <thread>

#include "ricd/framework.h"
#include "window/click_window.h"

namespace ricd::perfbench {

namespace {

constexpr double kFreshnessWindowSeconds = 2;

Status SameVerdicts(const serve::DetectionService& service,
                    const core::FrameworkResult& want) {
  std::vector<std::pair<table::UserId, double>> users;
  for (const core::RankedUser& u : want.ranked.users) {
    users.emplace_back(u.external_id, u.risk);
  }
  std::vector<std::pair<table::ItemId, double>> items;
  for (const core::RankedItem& v : want.ranked.items) {
    items.emplace_back(v.external_id, v.risk);
  }
  std::sort(users.begin(), users.end());
  std::sort(items.begin(), items.end());

  const serve::VerdictStore::ReadRef got = service.Verdicts();
  if (got->flagged_users.size() != users.size() ||
      got->flagged_items.size() != items.size()) {
    return Status::Internal(
        "published " + std::to_string(got->flagged_users.size()) + " users / " +
        std::to_string(got->flagged_items.size()) + " items, offline " +
        std::to_string(users.size()) + " / " + std::to_string(items.size()));
  }
  for (size_t i = 0; i < users.size(); ++i) {
    if (got->flagged_users[i] != users[i].first ||
        got->user_risks[i] != users[i].second) {
      return Status::Internal("flagged user or risk differs from offline");
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (got->flagged_items[i] != items[i].first ||
        got->item_risks[i] != items[i].second) {
      return Status::Internal("flagged item or risk differs from offline");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<OnlineInputs> MaterializeOnline(const scenario::ScenarioSpec& spec) {
  OnlineInputs in;
  RICD_ASSIGN_OR_RETURN(in.scenario, scenario::Materialize(spec));
  in.schedule = scenario::ArrivalSchedule(spec, in.scenario.table);
  in.half = in.schedule.size() / 2;
  in.bootstrap.Reserve(in.half);
  for (size_t i = 0; i < in.half; ++i) {
    in.bootstrap.Append(in.scenario.table.row(in.schedule[i].row));
  }
  return in;
}

PublishWatch::PublishWatch(const serve::DetectionService* service)
    : service_(service) {
  const serve::VerdictStore::ReadRef v = service_->Verdicts();
  epoch_ = v->epoch;
  applied_ = v->stats.applied;
}

void PublishWatch::Poll() {
  const serve::VerdictStore::ReadRef v = service_->Verdicts();
  if (v->epoch == epoch_) return;
  epoch_ = v->epoch;
  applied_ = v->stats.applied;
  publishes_.push_back({Clock::now(), applied_});
}

void PublishWatch::SleepUntil(Clock::time_point deadline) {
  const auto poll = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kPollSeconds));
  for (Clock::time_point now = Clock::now(); now < deadline;
       now = Clock::now()) {
    std::this_thread::sleep_until(std::min(deadline, now + poll));
    Poll();
  }
}

bool PublishWatch::WaitForApplied(uint64_t clicks, double timeout_s) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  Poll();
  while (applied_ < clicks) {
    if (Clock::now() >= give_up) return false;
    SleepUntil(Clock::now() + std::chrono::milliseconds(1));
  }
  return true;
}

std::vector<double> Freshness(const std::vector<Clock::time_point>& due,
                              const std::vector<PublishWatch::Publish>& seen) {
  std::vector<double> out;
  out.reserve(due.size());
  size_t p = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    while (p < seen.size() && seen[p].applied < i + 1) ++p;
    if (p == seen.size()) break;
    out.push_back(SecondsBetween(due[i], seen[p].seen));
  }
  return out;
}

double FreshnessQuantile(const std::vector<Clock::time_point>& due,
                         const std::vector<double>& fresh, double q) {
  if (fresh.empty()) return 0;
  std::vector<double> at;
  at.reserve(fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    at.push_back(SecondsBetween(due.front(), due[i]));
  }
  return WindowedQuantile(at, fresh, kFreshnessWindowSeconds, q);
}

void AddPublishMetrics(const std::vector<PublishWatch::Publish>& seen,
                       uint64_t clicks,
                       const std::vector<Clock::time_point>& due,
                       const std::vector<double>& fresh, Report* report) {
  std::vector<double> gaps;
  for (size_t i = 1; i < seen.size(); ++i) {
    gaps.push_back(SecondsBetween(seen[i - 1].seen, seen[i].seen));
  }
  report->Add("serve.publishes", "count", static_cast<double>(seen.size()));
  report->Add("serve.clicks_per_publish", "count",
              seen.empty() ? 0.0
                           : static_cast<double>(clicks) /
                                 static_cast<double>(seen.size()));
  report->Add("serve.publish_gap_s", "s", Median(gaps));
  report->Add("serve.freshness_p90_s", "s", FreshnessQuantile(due, fresh, 0.9));
}

Status CheckAgainstOffline(
    serve::DetectionService* service, const serve::ServeOptions& options,
    const table::ClickTable& bootstrap,
    const std::vector<std::pair<table::ClickRecord, uint64_t>>& streamed,
    table::ClickTable* retained) {
  RICD_RETURN_IF_ERROR(service->Drain());
  RICD_RETURN_IF_ERROR(service->WaitForRebuild());
  RICD_RETURN_IF_ERROR(service->ForceRebuild());

  window::ClickWindow replay(options.window);
  for (size_t i = 0; i < bootstrap.num_rows(); ++i) {
    replay.Append(bootstrap.row(i), 0);
  }
  for (const auto& [record, ts] : streamed) replay.Append(record, ts);
  const window::WindowStats want_window = replay.stats();
  const window::WindowStats got_window = service->window_stats();
  if (want_window.appended_rows != got_window.appended_rows ||
      want_window.retained_rows != got_window.retained_rows ||
      want_window.evicted_rows != got_window.evicted_rows) {
    return Status::Internal("service window retains different rows");
  }
  *retained = replay.MaterializeRetained();
  const core::RicdFramework offline(options.framework);
  RICD_ASSIGN_OR_RETURN(const core::FrameworkResult want,
                        offline.Run(*retained));
  return SameVerdicts(*service, want);
}

}  // namespace ricd::perfbench
