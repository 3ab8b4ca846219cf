#include "check/diff_result.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace ricd::check {
namespace {

/// Compares one record field by field and keeps the first mismatch as
/// `validate.diff: <tag>: <where><name>: want W, got G`. Values print with
/// 17 significant digits, so two unequal doubles never print alike.
class FieldDiff {
 public:
  explicit FieldDiff(const char* tag, std::string where = "")
      : tag_(tag), where_(std::move(where)) {}

  template <typename T>
  FieldDiff& Field(std::string_view name, const T& want, const T& got) {
    if (status_.ok() && !(want == got)) {
      std::ostringstream detail;
      detail.precision(17);
      detail << "validate.diff: " << tag_ << ": " << where_ << name
             << ": want " << want << ", got " << got;
      status_ = Status::Internal(detail.str());
    }
    return *this;
  }

  Status status() const { return status_; }

 private:
  const char* tag_;
  std::string where_;
  Status status_;
};

Status DiffMembers(size_t group, const char* side,
                   const std::vector<graph::VertexId>& want,
                   const std::vector<graph::VertexId>& got) {
  const auto [w, g] =
      std::mismatch(want.begin(), want.end(), got.begin(), got.end());
  FieldDiff diff("groups", StringPrintf("group %zu %s", group, side));
  if (w != want.end() && g != got.end()) {
    const size_t index = static_cast<size_t>(w - want.begin());
    return diff.Field(StringPrintf("[%zu]", index), *w, *g).status();
  }
  return diff.Field(" size", want.size(), got.size()).status();
}

/// One side of the risk table; `dense` names the row's dense-id member.
template <typename Row, typename Dense>
Status DiffRanking(const char* tag, const char* dense_name, Dense Row::*dense,
                   const std::vector<Row>& want, const std::vector<Row>& got) {
  for (size_t r = 0; r < std::min(want.size(), got.size()); ++r) {
    RICD_RETURN_IF_ERROR(
        FieldDiff(tag, StringPrintf("rank %zu ", r))
            .Field(dense_name, want[r].*dense, got[r].*dense)
            .Field("external_id", want[r].external_id, got[r].external_id)
            .Field("risk", want[r].risk, got[r].risk)
            .status());
  }
  return FieldDiff(tag).Field("rows", want.size(), got.size()).status();
}

/// Compares (id, risk) rows, sorted by id, against a snapshot's parallel
/// id/risk vectors.
template <typename Id>
Status DiffFlagged(const char* tag, std::vector<std::pair<Id, double>> want,
                   const std::vector<Id>& got_ids,
                   const std::vector<double>& got_risks) {
  std::sort(want.begin(), want.end());
  RICD_RETURN_IF_ERROR(FieldDiff(tag)
                           .Field("rows", want.size(), got_ids.size())
                           .Field("risk rows", got_ids.size(), got_risks.size())
                           .status());
  for (size_t r = 0; r < want.size(); ++r) {
    RICD_RETURN_IF_ERROR(FieldDiff(tag, StringPrintf("row %zu ", r))
                             .Field("id", want[r].first, got_ids[r])
                             .Field("risk", want[r].second, got_risks[r])
                             .status());
  }
  return Status::Ok();
}

}  // namespace

Status DiffPipelineResult(const core::FrameworkResult& want,
                          const core::FrameworkResult& got) {
  const auto& wg = want.detection.groups;
  const auto& gg = got.detection.groups;
  for (size_t g = 0; g < std::min(wg.size(), gg.size()); ++g) {
    RICD_RETURN_IF_ERROR(DiffMembers(g, "users", wg[g].users, gg[g].users));
    RICD_RETURN_IF_ERROR(DiffMembers(g, "items", wg[g].items, gg[g].items));
  }
  RICD_RETURN_IF_ERROR(
      FieldDiff("groups").Field("count", wg.size(), gg.size()).status());

  RICD_RETURN_IF_ERROR(DiffRanking("ranked-users", "user",
                                   &core::RankedUser::user, want.ranked.users,
                                   got.ranked.users));
  RICD_RETURN_IF_ERROR(DiffRanking("ranked-items", "item",
                                   &core::RankedItem::item, want.ranked.items,
                                   got.ranked.items));

  const core::RicdParams& wp = want.effective_params;
  const core::RicdParams& gp = got.effective_params;
  RICD_RETURN_IF_ERROR(
      FieldDiff("effective-params")
          .Field("k1", wp.k1, gp.k1)
          .Field("k2", wp.k2, gp.k2)
          .Field("alpha", wp.alpha, gp.alpha)
          .Field("t_hot", wp.t_hot, gp.t_hot)
          .Field("t_click", wp.t_click, gp.t_click)
          .Field("max_avg_hot_clicks", wp.max_avg_hot_clicks,
                 gp.max_avg_hot_clicks)
          .Field("min_supporting_users", wp.min_supporting_users,
                 gp.min_supporting_users)
          .Field("square_pruning_sweeps", wp.square_pruning_sweeps,
                 gp.square_pruning_sweeps)
          .Field("max_group_users", wp.max_group_users, gp.max_group_users)
          .status());
  RICD_RETURN_IF_ERROR(FieldDiff("feedback-rounds")
                           .Field("feedback_rounds_used",
                                  want.feedback_rounds_used,
                                  got.feedback_rounds_used)
                           .status());

  const core::ExtractionStats& we = want.extraction_stats;
  const core::ExtractionStats& ge = got.extraction_stats;
  RICD_RETURN_IF_ERROR(
      FieldDiff("extraction-stats")
          .Field("users_removed_core", we.users_removed_core,
                 ge.users_removed_core)
          .Field("items_removed_core", we.items_removed_core,
                 ge.items_removed_core)
          .Field("users_removed_square", we.users_removed_square,
                 ge.users_removed_square)
          .Field("items_removed_square", we.items_removed_square,
                 ge.items_removed_square)
          .Field("sweeps_run", we.sweeps_run, ge.sweeps_run)
          .status());
  const core::ScreeningStats& ws = want.screening_stats;
  const core::ScreeningStats& gs = got.screening_stats;
  return FieldDiff("screening-stats")
      .Field("users_removed", ws.users_removed, gs.users_removed)
      .Field("items_removed", ws.items_removed, gs.items_removed)
      .Field("groups_dropped", ws.groups_dropped, gs.groups_dropped)
      .status();
}

Status DiffVerdictSnapshot(const core::FrameworkResult& want,
                           const table::ClickTable& retained,
                           const serve::VerdictSnapshot& got) {
  std::vector<std::pair<table::UserId, double>> users;
  for (const core::RankedUser& u : want.ranked.users) {
    users.emplace_back(u.external_id, u.risk);
  }
  RICD_RETURN_IF_ERROR(DiffFlagged("verdict-users", std::move(users),
                                   got.flagged_users, got.user_risks));
  std::vector<std::pair<table::ItemId, double>> items;
  for (const core::RankedItem& v : want.ranked.items) {
    items.emplace_back(v.external_id, v.risk);
  }
  RICD_RETURN_IF_ERROR(DiffFlagged("verdict-items", std::move(items),
                                   got.flagged_items, got.item_risks));

  // Flags matched, so got's sorted id vectors double as want's flag sets.
  std::vector<std::pair<table::UserId, table::ItemId>> pairs;
  for (size_t i = 0; i < retained.num_rows(); ++i) {
    const table::UserId u = retained.user(i);
    const table::ItemId v = retained.item(i);
    if (std::binary_search(got.flagged_users.begin(), got.flagged_users.end(),
                           u) &&
        std::binary_search(got.flagged_items.begin(), got.flagged_items.end(),
                           v)) {
      pairs.emplace_back(u, v);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (size_t r = 0; r < std::min(pairs.size(), got.blocked_pairs.size());
       ++r) {
    RICD_RETURN_IF_ERROR(
        FieldDiff("verdict-pairs", StringPrintf("row %zu ", r))
            .Field("user", pairs[r].first, got.blocked_pairs[r].first)
            .Field("item", pairs[r].second, got.blocked_pairs[r].second)
            .status());
  }
  return FieldDiff("verdict-pairs")
      .Field("rows", pairs.size(), got.blocked_pairs.size())
      .status();
}

}  // namespace ricd::check
