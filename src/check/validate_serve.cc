#include "check/validate_serve.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ricd::check {
namespace {

Status FailServe(const char* tag, std::string detail) {
  obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kCheckViolations)->Add(1);
  return Status(StatusCode::kInternal,
                StringPrintf("validate.serve: %s: %s", tag, detail.c_str()));
}

template <typename T>
bool SortedUnique(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            [](const T& a, const T& b) { return !(a < b); }) ==
         v.end();
}

}  // namespace

Status ValidateVerdictSnapshot(const serve::VerdictSnapshot& snapshot) {
  obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kCheckValidationsRun)->Add(1);
  if (!SortedUnique(snapshot.flagged_users)) {
    return FailServe("users-unsorted",
                     "flagged_users not sorted ascending / contains "
                     "duplicates");
  }
  if (!SortedUnique(snapshot.flagged_items)) {
    return FailServe("items-unsorted",
                     "flagged_items not sorted ascending / contains "
                     "duplicates");
  }
  if (snapshot.user_risks.size() != snapshot.flagged_users.size()) {
    return FailServe("user-risks-shape",
                     StringPrintf("%zu risks for %zu flagged users",
                                  snapshot.user_risks.size(),
                                  snapshot.flagged_users.size()));
  }
  if (snapshot.item_risks.size() != snapshot.flagged_items.size()) {
    return FailServe("item-risks-shape",
                     StringPrintf("%zu risks for %zu flagged items",
                                  snapshot.item_risks.size(),
                                  snapshot.flagged_items.size()));
  }
  if (!SortedUnique(snapshot.blocked_pairs)) {
    return FailServe("pairs-unsorted",
                     "blocked_pairs not sorted lexicographically / contains "
                     "duplicates");
  }
  for (const auto& [user, item] : snapshot.blocked_pairs) {
    if (!snapshot.FlaggedUser(user)) {
      return FailServe("pair-user-unflagged",
                       StringPrintf("blocked pair user %lld not flagged",
                                    static_cast<long long>(user)));
    }
    if (!snapshot.FlaggedItem(item)) {
      return FailServe("pair-item-unflagged",
                       StringPrintf("blocked pair item %lld not flagged",
                                    static_cast<long long>(item)));
    }
  }
  if (snapshot.stats.applied > snapshot.stats.accepted) {
    return FailServe("applied-exceeds-accepted",
                     StringPrintf("applied %llu > accepted %llu",
                                  static_cast<unsigned long long>(
                                      snapshot.stats.applied),
                                  static_cast<unsigned long long>(
                                      snapshot.stats.accepted)));
  }
  return Status::Ok();
}

Status ValidateVerdictTransition(const serve::VerdictSnapshot& prev,
                                 const serve::VerdictSnapshot& next) {
  obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kCheckValidationsRun)->Add(1);
  if (next.epoch <= prev.epoch) {
    return FailServe("epoch-not-increasing",
                     StringPrintf("epoch %llu -> %llu",
                                  static_cast<unsigned long long>(prev.epoch),
                                  static_cast<unsigned long long>(next.epoch)));
  }
  if (next.stats.accepted < prev.stats.accepted ||
      next.stats.applied < prev.stats.applied ||
      next.stats.rejected < prev.stats.rejected ||
      next.stats.batches < prev.stats.batches) {
    return FailServe("stats-regressed",
                     "a monotone serve counter decreased between snapshots");
  }
  return Status::Ok();
}

Status ValidateIngestAccounting(const serve::IngestQueueStats& stats,
                                bool expect_quiescent) {
  obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kCheckValidationsRun)->Add(1);
  if (stats.popped > stats.pushed) {
    return FailServe("popped-exceeds-pushed",
                     StringPrintf("popped %llu > pushed %llu",
                                  static_cast<unsigned long long>(stats.popped),
                                  static_cast<unsigned long long>(
                                      stats.pushed)));
  }
  if (stats.depth != stats.pushed - stats.popped) {
    return FailServe("depth-mismatch",
                     StringPrintf("depth %llu != pushed %llu - popped %llu",
                                  static_cast<unsigned long long>(stats.depth),
                                  static_cast<unsigned long long>(stats.pushed),
                                  static_cast<unsigned long long>(
                                      stats.popped)));
  }
  if (stats.depth > stats.capacity) {
    return FailServe("depth-exceeds-capacity",
                     StringPrintf("depth %llu > capacity %llu",
                                  static_cast<unsigned long long>(stats.depth),
                                  static_cast<unsigned long long>(
                                      stats.capacity)));
  }
  if (expect_quiescent && stats.depth != 0) {
    return FailServe("not-quiescent",
                     StringPrintf("depth %llu after drain",
                                  static_cast<unsigned long long>(
                                      stats.depth)));
  }
  return Status::Ok();
}

}  // namespace ricd::check
