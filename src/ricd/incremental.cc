#include "ricd/incremental.h"

#include <algorithm>

#include "obs/trace.h"

namespace ricd::core {

Status IncrementalRicd::Detect(IncrementalUpdate* update) {
  std::unordered_map<table::UserId, double> users;
  std::unordered_map<table::ItemId, double> items;
  if (!table_.empty()) {
    RICD_ASSIGN_OR_RETURN(const FrameworkResult result, framework_.Run(table_));
    for (const RankedUser& u : result.ranked.users) {
      users.emplace(u.external_id, u.risk);
    }
    for (const RankedItem& v : result.ranked.items) {
      items.emplace(v.external_id, v.risk);
    }
  }
  if (update != nullptr) {
    update->region_edges = table_.num_rows();
    for (const auto& [u, risk] : users) {
      if (flagged_users_.count(u) == 0) update->newly_flagged_users.push_back(u);
    }
    for (const auto& [v, risk] : items) {
      if (flagged_items_.count(v) == 0) update->newly_flagged_items.push_back(v);
    }
    std::sort(update->newly_flagged_users.begin(),
              update->newly_flagged_users.end());
    std::sort(update->newly_flagged_items.begin(),
              update->newly_flagged_items.end());
  }
  flagged_users_ = std::move(users);
  flagged_items_ = std::move(items);
  return Status::Ok();
}

Status IncrementalRicd::Bootstrap(const table::ClickTable& initial) {
  RICD_TRACE_SPAN("ricd.incremental.bootstrap");
  table_ = initial;
  table_.ConsolidateDuplicates();
  flagged_users_.clear();
  flagged_items_.clear();
  RICD_RETURN_IF_ERROR(Detect(nullptr));
  bootstrapped_ = true;
  return Status::Ok();
}

Result<IncrementalUpdate> IncrementalRicd::Ingest(const table::ClickTable& batch) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Ingest before Bootstrap");
  }
  IncrementalUpdate update;
  if (batch.empty()) return update;
  RICD_TRACE_SPAN("ricd.incremental.ingest");
  table_.AppendTable(batch);  // bounded: Bootstrap resets it; callers replay finite traces
  table_.ConsolidateDuplicates();
  RICD_RETURN_IF_ERROR(Detect(&update));
  return update;
}

}  // namespace ricd::core
