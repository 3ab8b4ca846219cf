#include "ricd/incremental.h"

#include <algorithm>
#include <limits>

#include "check/validate.h"
#include "graph/graph_builder.h"
#include "graph/hot_items.h"
#include "obs/trace.h"
#include "ricd/graph_generator.h"

namespace ricd::core {

IncrementalRicd::IncrementalRicd(FrameworkOptions options)
    : options_(std::move(options)) {
  // Seeds come from each batch, not from configuration.
  options_.seeds = SeedSet{};
}

void IncrementalRicd::FoldBatch(const table::ClickTable& batch,
                                std::unordered_set<table::UserId>* touched_users,
                                std::unordered_set<table::ItemId>* touched_items) {
  constexpr uint64_t kMaxClicks = std::numeric_limits<table::ClickCount>::max();
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    const table::UserId u = batch.user(i);
    const table::ItemId v = batch.item(i);
    const uint64_t c = batch.clicks(i);
    auto& cell = user_adj_[u][v];
    if (cell == 0) {
      ++num_edges_;
      item_users_[v].insert(u);
    }
    cell = std::min(cell + c, kMaxClicks);
    total_clicks_ += c;
    if (touched_users != nullptr) touched_users->insert(u);
    if (touched_items != nullptr) touched_items->insert(v);
  }
}

std::vector<std::pair<table::ItemId, uint64_t>> IncrementalRicd::UserEdges(
    table::UserId u) const {
  const auto it = user_adj_.find(u);
  if (it == user_adj_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

table::ClickTable IncrementalRicd::MaterializeTable() const {
  table::ClickTable out;
  out.Reserve(num_edges_);
  std::vector<table::UserId> users;
  users.reserve(user_adj_.size());
  for (const auto& [u, items] : user_adj_) users.push_back(u);
  std::sort(users.begin(), users.end());
  for (const table::UserId u : users) {
    for (const auto& [v, c] : user_adj_.at(u)) {
      out.Append(u, v, static_cast<table::ClickCount>(c));
    }
  }
  return out;
}

table::ClickTable IncrementalRicd::RegionTable(
    const std::unordered_set<table::UserId>& touched_users,
    const std::unordered_set<table::ItemId>& touched_items,
    IncrementalUpdate* update) const {
  // 2-hop closure, mirroring Algorithm 2's MaxBiGraph expansion:
  //   region items = touched items ∪ items(touched users)
  //                 ∪ items(users(touched items))
  //   region users = touched users ∪ users(touched items)
  //                 ∪ users(items(touched users))
  std::unordered_set<table::UserId> region_users = touched_users;
  std::unordered_set<table::ItemId> region_items = touched_items;

  const auto add_items_of = [&](table::UserId u) {
    const auto it = user_adj_.find(u);
    if (it == user_adj_.end()) return;
    for (const auto& [v, c] : it->second) region_items.insert(v);
  };
  const auto add_users_of = [&](table::ItemId v) {
    const auto it = item_users_.find(v);
    if (it == item_users_.end()) return;
    for (const table::UserId u : it->second) region_users.insert(u);
  };

  for (const table::UserId u : touched_users) add_items_of(u);
  for (const table::ItemId v : touched_items) add_users_of(v);
  // Second hop: close over the frontier added above.
  {
    const std::vector<table::ItemId> items_snapshot(region_items.begin(),
                                                    region_items.end());
    for (const table::ItemId v : items_snapshot) add_users_of(v);
    const std::vector<table::UserId> users_snapshot(region_users.begin(),
                                                    region_users.end());
    for (const table::UserId u : users_snapshot) add_items_of(u);
  }

  // Induced rows, in deterministic order.
  std::vector<table::UserId> users(region_users.begin(), region_users.end());
  std::sort(users.begin(), users.end());
  table::ClickTable region;
  for (const table::UserId u : users) {
    const auto it = user_adj_.find(u);
    if (it == user_adj_.end()) continue;
    for (const auto& [v, c] : it->second) {
      if (region_items.count(v) == 0) continue;
      region.Append(u, v, static_cast<table::ClickCount>(c));
    }
  }
  if (update != nullptr) {
    update->region_users = static_cast<uint32_t>(region_users.size());
    update->region_items = static_cast<uint32_t>(region_items.size());
    update->region_edges = region.num_rows();
  }
  return region;
}

void IncrementalRicd::MergeRanked(const RankedOutput& ranked,
                                  IncrementalUpdate* update) {
  for (const auto& user : ranked.users) {
    const auto [it, inserted] =
        flagged_users_.try_emplace(user.external_id, user.risk);
    if (inserted) {
      if (update != nullptr) {
        update->newly_flagged_users.push_back(user.external_id);
      }
    } else {
      it->second = std::max(it->second, user.risk);
    }
  }
  for (const auto& item : ranked.items) {
    const auto [it, inserted] =
        flagged_items_.try_emplace(item.external_id, item.risk);
    if (inserted) {
      if (update != nullptr) {
        update->newly_flagged_items.push_back(item.external_id);
      }
    } else {
      it->second = std::max(it->second, item.risk);
    }
  }
  if (update != nullptr) {
    std::sort(update->newly_flagged_users.begin(),
              update->newly_flagged_users.end());
    std::sort(update->newly_flagged_items.begin(),
              update->newly_flagged_items.end());
  }
}

Status IncrementalRicd::Bootstrap(const table::ClickTable& initial) {
  // Child span of serve.bootstrap / serve.rebuild when called from the
  // service; a root span in offline runs.
  RICD_TRACE_SPAN("ricd.incremental.bootstrap");
  user_adj_.clear();
  item_users_.clear();
  num_edges_ = 0;
  total_clicks_ = 0;
  flagged_users_.clear();
  flagged_items_.clear();
  FoldBatch(initial, nullptr, nullptr);

  if (num_edges_ > 0) {
    RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                          graph::GraphBuilder::FromTable(MaterializeTable()));
    // Pin the hot threshold globally: regional derivations would be biased.
    if (options_.params.t_hot == 0) {
      options_.params.t_hot = graph::DeriveHotThreshold(graph, 0.8);
    }
    RicdFramework framework(options_);
    RICD_ASSIGN_OR_RETURN(FrameworkResult result, framework.RunOnGraph(graph));
    MergeRanked(result.ranked, nullptr);
  }
  bootstrapped_ = true;
  return Status::Ok();
}

Result<IncrementalUpdate> IncrementalRicd::Ingest(const table::ClickTable& batch) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Ingest before Bootstrap");
  }
  IncrementalUpdate update;
  if (batch.empty()) return update;

  std::unordered_set<table::UserId> touched_users;
  std::unordered_set<table::ItemId> touched_items;
  {
    RICD_TRACE_SPAN("ricd.incremental.fold");
    FoldBatch(batch, &touched_users, &touched_items);
  }

  table::ClickTable region;
  {
    RICD_TRACE_SPAN("ricd.incremental.region");
    region = RegionTable(touched_users, touched_items, &update);
  }
  if (region.empty()) return update;

  RICD_TRACE_SPAN("ricd.incremental.detect");
  RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                        graph::GraphBuilder::FromTable(region));
  if (check::ValidationEnabled()) {
    // The region graph is rebuilt from incrementally folded stream state —
    // exactly the structure a lost update or double-counted edge corrupts,
    // so audit it before detection trusts it. (RunOnGraph re-validates the
    // CSR form; this placement pins the blame on the fold, not detection.)
    RICD_RETURN_IF_ERROR(check::ValidateBipartiteGraph(graph));
  }
  RicdFramework framework(options_);
  RICD_ASSIGN_OR_RETURN(FrameworkResult result, framework.RunOnGraph(graph));
  update.region_groups = static_cast<uint32_t>(result.detection.groups.size());
  MergeRanked(result.ranked, &update);
  return update;
}

void IncrementalRicd::ResetFlags() {
  flagged_users_.clear();
  flagged_items_.clear();
}

}  // namespace ricd::core
