#include "check/validate.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ricd::check {
namespace {

using graph::Side;
using graph::VertexId;

/// -1 = unresolved, 0 = off, 1 = on.
std::atomic<int> g_validation_state{-1};

int ResolveValidationDefault() {
  const char* env = std::getenv("RICD_VALIDATE");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "false") == 0) {
      return 0;
    }
    return 1;  // Any other non-empty value opts in.
  }
#ifndef NDEBUG
  return 1;
#else
  return 0;
#endif
}

struct CheckCounters {
  obs::Counter* violations;
  obs::Counter* validations_run;

  static const CheckCounters& Get() {
    static const CheckCounters counters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return CheckCounters{registry.GetCounter(obs::metric_names::kCheckViolations),
                           registry.GetCounter(obs::metric_names::kCheckValidationsRun)};
    }();
    return counters;
  }
};

/// Builds the failed Status for one violation and records it in the
/// `check.violations` counter. `area` and `tag` form the stable message
/// prefix tests key on.
Status Fail(StatusCode code, const char* area, const char* tag,
            std::string detail) {
  CheckCounters::Get().violations->Add(1);
  return Status(code, StringPrintf("validate.%s: %s: %s", area, tag,
                                   detail.c_str()));
}

Status FailCorruption(const char* tag, std::string detail) {
  return Fail(StatusCode::kCorruption, "graph", tag, std::move(detail));
}

const char* SideName(Side side) {
  return side == Side::kUser ? "user" : "item";
}

/// Offset vector + adjacency checks for one CSR side.
Status ValidateCsrSide(const graph::BipartiteGraph& g, Side side) {
  const std::span<const uint64_t> offsets =
      side == Side::kUser ? g.UserOffsets() : g.ItemOffsets();
  const uint32_t n = g.num_vertices(side);
  const uint32_t other_n = g.num_vertices(graph::Other(side));

  if (offsets.empty() || offsets.front() != 0) {
    return FailCorruption("offsets-not-monotone",
                          StringPrintf("%s offsets must start at 0",
                                       SideName(side)));
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return FailCorruption(
          "offsets-not-monotone",
          StringPrintf("%s offsets decrease at vertex %zu (%llu -> %llu)",
                       SideName(side), i - 1,
                       static_cast<unsigned long long>(offsets[i - 1]),
                       static_cast<unsigned long long>(offsets[i])));
    }
  }
  if (offsets.back() != g.num_edges()) {
    return FailCorruption(
        "offsets-terminal-mismatch",
        StringPrintf("%s offsets end at %llu but the graph has %llu edges",
                     SideName(side),
                     static_cast<unsigned long long>(offsets.back()),
                     static_cast<unsigned long long>(g.num_edges())));
  }

  for (VertexId v = 0; v < n; ++v) {
    const auto neighbors = g.Neighbors(side, v);
    const auto clicks = g.EdgeClicks(side, v);
    uint64_t vertex_clicks = 0;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] >= other_n) {
        return FailCorruption(
            "neighbor-out-of-range",
            StringPrintf("%s %u references dangling %s id %u (>= %u)",
                         SideName(side), v, SideName(graph::Other(side)),
                         neighbors[i], other_n));
      }
      if (i > 0 && neighbors[i] == neighbors[i - 1]) {
        return FailCorruption(
            "adjacency-duplicate",
            StringPrintf("%s %u lists neighbor %u twice", SideName(side), v,
                         neighbors[i]));
      }
      if (i > 0 && neighbors[i] < neighbors[i - 1]) {
        return FailCorruption(
            "adjacency-unsorted",
            StringPrintf("%s %u adjacency decreases at position %zu",
                         SideName(side), v, i));
      }
      if (clicks[i] == 0) {
        return FailCorruption(
            "zero-multiplicity",
            StringPrintf("edge (%s %u, neighbor %u) has zero clicks",
                         SideName(side), v, neighbors[i]));
      }
      vertex_clicks += clicks[i];
    }
    const uint64_t recorded = side == Side::kUser ? g.UserTotalClicks(v)
                                                  : g.ItemTotalClicks(v);
    if (vertex_clicks != recorded) {
      return FailCorruption(
          "total-clicks-mismatch",
          StringPrintf("%s %u stores total %llu but edges sum to %llu",
                       SideName(side), v,
                       static_cast<unsigned long long>(recorded),
                       static_cast<unsigned long long>(vertex_clicks)));
    }
  }
  return Status::Ok();
}

}  // namespace

bool ValidationEnabled() {
  int state = g_validation_state.load(std::memory_order_relaxed);  // order: env-derived tri-state cache; racers compute the same value
  if (state < 0) {
    state = ResolveValidationDefault();
    g_validation_state.store(state, std::memory_order_relaxed);  // order: idempotent publish of the same env-derived value
  }
  return state != 0;
}

void SetValidationEnabled(bool enabled) {
  g_validation_state.store(enabled ? 1 : 0, std::memory_order_relaxed);  // order: advisory toggle; callers flip it between runs, not mid-run
}

Status ValidateBipartiteGraph(const graph::BipartiteGraph& g) {
  CheckCounters::Get().validations_run->Add(1);

  RICD_RETURN_IF_ERROR(ValidateCsrSide(g, Side::kUser));
  RICD_RETURN_IF_ERROR(ValidateCsrSide(g, Side::kItem));

  // Degree-sum symmetry: both sides must materialize every edge once.
  uint64_t user_degree_sum = 0;
  for (VertexId u = 0; u < g.num_users(); ++u) {
    user_degree_sum += g.Degree(Side::kUser, u);
  }
  uint64_t item_degree_sum = 0;
  for (VertexId v = 0; v < g.num_items(); ++v) {
    item_degree_sum += g.Degree(Side::kItem, v);
  }
  if (user_degree_sum != item_degree_sum ||
      user_degree_sum != g.num_edges()) {
    return FailCorruption(
        "degree-sum-asymmetry",
        StringPrintf("user degrees sum to %llu, item degrees to %llu, graph "
                     "claims %llu edges",
                     static_cast<unsigned long long>(user_degree_sum),
                     static_cast<unsigned long long>(item_degree_sum),
                     static_cast<unsigned long long>(g.num_edges())));
  }

  // Exact transpose agreement. Item adjacency is sorted by user id and the
  // user side is walked in ascending order, so each item's user list must
  // be consumed left to right with matching weights — one cursor per item,
  // O(E) total.
  std::vector<uint64_t> cursor(g.num_items(), 0);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    const auto items = g.UserNeighbors(u);
    const auto clicks = g.UserEdgeClicks(u);
    for (size_t i = 0; i < items.size(); ++i) {
      const VertexId v = items[i];
      const auto users = g.ItemNeighbors(v);
      const auto item_clicks = g.ItemEdgeClicks(v);
      const uint64_t pos = cursor[v]++;
      if (pos >= users.size() || users[pos] != u ||
          item_clicks[pos] != clicks[i]) {
        return FailCorruption(
            "transpose-mismatch",
            StringPrintf("edge (user %u, item %u) is missing or differs in "
                         "the item-side CSR",
                         u, v));
      }
    }
  }
  for (VertexId v = 0; v < g.num_items(); ++v) {
    if (cursor[v] != g.Degree(Side::kItem, v)) {
      return FailCorruption(
          "transpose-mismatch",
          StringPrintf("item %u has %u user edges but only %llu were "
                       "reachable from the user side",
                       v, g.Degree(Side::kItem, v),
                       static_cast<unsigned long long>(cursor[v])));
    }
  }

  // Global click totals.
  uint64_t user_clicks = 0;
  for (VertexId u = 0; u < g.num_users(); ++u) {
    user_clicks += g.UserTotalClicks(u);
  }
  if (user_clicks != g.total_clicks()) {
    return FailCorruption(
        "global-clicks-mismatch",
        StringPrintf("per-user totals sum to %llu but the graph claims %llu",
                     static_cast<unsigned long long>(user_clicks),
                     static_cast<unsigned long long>(g.total_clicks())));
  }

  // External-id lookup round-trips.
  for (VertexId u = 0; u < g.num_users(); ++u) {
    VertexId back = 0;
    if (!g.LookupUser(g.ExternalUserId(u), &back) || back != u) {
      return FailCorruption(
          "lookup-mismatch",
          StringPrintf("user %u does not round-trip through its external id",
                       u));
    }
  }
  for (VertexId v = 0; v < g.num_items(); ++v) {
    VertexId back = 0;
    if (!g.LookupItem(g.ExternalItemId(v), &back) || back != v) {
      return FailCorruption(
          "lookup-mismatch",
          StringPrintf("item %u does not round-trip through its external id",
                       v));
    }
  }
  return Status::Ok();
}

Status ValidateExtensionBiclique(const graph::BipartiteGraph& g,
                                 const graph::Group& group,
                                 const core::RicdParams& params) {
  CheckCounters::Get().validations_run->Add(1);
  const auto fail = [](const char* tag, std::string detail) {
    return Fail(StatusCode::kInternal, "biclique", tag, std::move(detail));
  };

  if (group.users.size() < params.k1) {
    return fail("group-too-few-users",
                StringPrintf("group has %zu users, k1 = %u requires more",
                             group.users.size(), params.k1));
  }
  if (group.items.size() < params.k2) {
    return fail("group-too-few-items",
                StringPrintf("group has %zu items, k2 = %u requires more",
                             group.items.size(), params.k2));
  }

  const auto check_members = [&](const std::vector<VertexId>& members,
                                 Side side) -> Status {
    const uint32_t n = g.num_vertices(side);
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] >= n) {
        return fail("group-member-out-of-range",
                    StringPrintf("%s id %u >= %u", SideName(side), members[i],
                                 n));
      }
      if (i > 0 && members[i] <= members[i - 1]) {
        return fail("group-member-unsorted-or-duplicate",
                    StringPrintf("%s list not strictly increasing at "
                                 "position %zu",
                                 SideName(side), i));
      }
    }
    return Status::Ok();
  };
  RICD_RETURN_IF_ERROR(check_members(group.users, Side::kUser));
  RICD_RETURN_IF_ERROR(check_members(group.items, Side::kItem));

  // Alpha condition against the *source* graph: membership flags make each
  // in-group degree count O(degree).
  const auto ceil_mul = [](double alpha, uint32_t k) {
    return static_cast<uint32_t>(std::ceil(alpha * static_cast<double>(k)));
  };
  std::vector<uint8_t> in_items(g.num_items(), 0);
  for (const VertexId v : group.items) in_items[v] = 1;
  const uint32_t min_user_degree = ceil_mul(params.alpha, params.k2);
  for (const VertexId u : group.users) {
    uint32_t in_group = 0;
    for (const VertexId v : g.UserNeighbors(u)) in_group += in_items[v];
    if (in_group < min_user_degree) {
      return fail(
          "alpha-user-degree",
          StringPrintf("user %u clicks only %u of the group's items; alpha "
                       "= %.3f with k2 = %u requires %u",
                       u, in_group, params.alpha, params.k2,
                       min_user_degree));
    }
  }
  std::vector<uint8_t> in_users(g.num_users(), 0);
  for (const VertexId u : group.users) in_users[u] = 1;
  const uint32_t min_item_degree = ceil_mul(params.alpha, params.k1);
  for (const VertexId v : group.items) {
    uint32_t in_group = 0;
    for (const VertexId u : g.ItemNeighbors(v)) in_group += in_users[u];
    if (in_group < min_item_degree) {
      return fail(
          "alpha-item-degree",
          StringPrintf("item %u is clicked by only %u of the group's users; "
                       "alpha = %.3f with k1 = %u requires %u",
                       v, in_group, params.alpha, params.k1,
                       min_item_degree));
    }
  }
  return Status::Ok();
}

Status ValidateMutableView(const graph::MutableView& view) {
  CheckCounters::Get().validations_run->Add(1);
  const graph::BipartiteGraph& g = view.graph();
  const auto fail = [](const char* tag, std::string detail) {
    return Fail(StatusCode::kInternal, "view", tag, std::move(detail));
  };

  for (const Side side : {Side::kUser, Side::kItem}) {
    const Side other = graph::Other(side);
    uint32_t active = 0;
    for (VertexId v = 0; v < g.num_vertices(side); ++v) {
      if (!view.IsActive(side, v)) continue;
      ++active;
      uint32_t degree = 0;
      for (const VertexId w : g.Neighbors(side, v)) {
        if (view.IsActive(other, w)) ++degree;
      }
      if (degree != view.ActiveDegree(side, v)) {
        return fail(
            "view-degree-mismatch",
            StringPrintf("%s %u caches active degree %u but %u neighbors "
                         "are active",
                         SideName(side), v, view.ActiveDegree(side, v),
                         degree));
      }
    }
    if (active != view.NumActive(side)) {
      return fail(
          "view-active-count-mismatch",
          StringPrintf("%s side caches %u active vertices but %u are marked "
                       "active",
                       SideName(side), view.NumActive(side), active));
    }
  }
  return Status::Ok();
}

Status ValidateWitnessCertificates(const graph::MutableView& view) {
  CheckCounters::Get().validations_run->Add(1);
  const graph::BipartiteGraph& g = view.graph();
  const auto fail = [](const char* tag, std::string detail) {
    return Fail(StatusCode::kInternal, "view", tag, std::move(detail));
  };

  for (const Side side : {Side::kUser, Side::kItem}) {
    const Side other = graph::Other(side);
    const graph::WitnessCertificates& certs = view.Certificates(side);
    const size_t count = certs.vertices.size();
    if (certs.degrees.size() != count ||
        certs.witnesses.size() != count * certs.per_vertex) {
      return fail("certificate-malformed",
                  StringPrintf("%s side holds %zu vertices, %zu degrees and "
                               "%zu witnesses at %u per vertex",
                               SideName(side), count, certs.degrees.size(),
                               certs.witnesses.size(), certs.per_vertex));
    }
    const uint32_t n = g.num_vertices(side);
    std::vector<uint8_t> shared(g.num_vertices(other), 0);
    for (size_t c = 0; c < count; ++c) {
      const VertexId x = certs.vertices[c];
      const std::span<const VertexId> witnesses = certs.WitnessesOf(c);
      const bool ascending = c == 0 || certs.vertices[c - 1] < x;
      if (x >= n || !ascending ||
          std::any_of(witnesses.begin(), witnesses.end(),
                      [n](VertexId y) { return y >= n; })) {
        return fail("certificate-malformed",
                    StringPrintf("%s certificate %zu (vertex %u) is out of "
                                 "range or out of order",
                                 SideName(side), c, x));
      }
      // Only certificates the next pass could skip on owe the Lemma-2
      // count.
      if (!view.IsActive(side, x) ||
          view.ActiveDegree(side, x) != certs.degrees[c] ||
          !std::all_of(witnesses.begin(), witnesses.end(), [&](VertexId y) {
            return view.IsActive(side, y);
          })) {
        continue;
      }
      for (const VertexId w : g.Neighbors(side, x)) {
        shared[w] = view.IsActive(other, w) ? 1 : 0;
      }
      for (const VertexId y : witnesses) {
        uint32_t common = 0;
        for (const VertexId w : g.Neighbors(side, y)) common += shared[w];
        if (common < certs.common_needed) {
          return fail(
              "witness-below-threshold",
              StringPrintf("%s %u is certified by witness %u, which shares "
                           "%u of its active counterparts (needs %u)",
                           SideName(side), x, y, common, certs.common_needed));
        }
      }
      for (const VertexId w : g.Neighbors(side, x)) shared[w] = 0;
    }
  }
  return Status::Ok();
}

Status ValidatePipelineResult(const graph::BipartiteGraph& g,
                              const std::vector<graph::Group>& groups,
                              const core::RankedOutput* ranked) {
  CheckCounters::Get().validations_run->Add(1);
  const auto fail = [](const char* tag, std::string detail) {
    return Fail(StatusCode::kInternal, "result", tag, std::move(detail));
  };

  std::vector<uint8_t> seen_users(g.num_users(), 0);
  std::vector<uint8_t> seen_items(g.num_items(), 0);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const graph::Group& group = groups[gi];
    if (group.empty()) {
      return fail("result-empty-group",
                  StringPrintf("group %zu survived screening empty", gi));
    }
    // Duplicate detection is per group: distinct groups may legitimately
    // share members (overlapping components never do today, but screening
    // must not be the stage that introduces duplicates inside one group).
    for (const VertexId u : group.users) {
      if (u >= g.num_users()) {
        return fail("result-user-out-of-range",
                    StringPrintf("group %zu flags user %u >= %u", gi, u,
                                 g.num_users()));
      }
      if (seen_users[u] != 0) {
        return fail("result-duplicate-user",
                    StringPrintf("group %zu lists user %u twice", gi, u));
      }
      seen_users[u] = 1;
    }
    for (const VertexId v : group.items) {
      if (v >= g.num_items()) {
        return fail("result-item-out-of-range",
                    StringPrintf("group %zu flags item %u >= %u", gi, v,
                                 g.num_items()));
      }
      if (seen_items[v] != 0) {
        return fail("result-duplicate-item",
                    StringPrintf("group %zu lists item %u twice", gi, v));
      }
      seen_items[v] = 1;
    }
    for (const VertexId u : group.users) seen_users[u] = 0;
    for (const VertexId v : group.items) seen_items[v] = 0;
  }

  if (ranked == nullptr) return Status::Ok();

  for (size_t i = 0; i < ranked->users.size(); ++i) {
    const core::RankedUser& row = ranked->users[i];
    if (row.user >= g.num_users()) {
      return fail("ranked-user-out-of-range",
                  StringPrintf("ranked row %zu references user %u >= %u", i,
                               row.user, g.num_users()));
    }
    if (g.ExternalUserId(row.user) != row.external_id) {
      return fail("ranked-external-id-mismatch",
                  StringPrintf("ranked user %u carries external id %lld",
                               row.user,
                               static_cast<long long>(row.external_id)));
    }
    if (seen_users[row.user] != 0) {
      return fail("ranked-duplicate",
                  StringPrintf("user %u ranked twice", row.user));
    }
    seen_users[row.user] = 1;
    if (i > 0) {
      const core::RankedUser& prev = ranked->users[i - 1];
      if (row.risk > prev.risk ||
          (row.risk == prev.risk && row.external_id < prev.external_id)) {
        return fail("ranked-not-sorted",
                    StringPrintf("ranked users out of order at row %zu", i));
      }
    }
  }
  for (size_t i = 0; i < ranked->items.size(); ++i) {
    const core::RankedItem& row = ranked->items[i];
    if (row.item >= g.num_items()) {
      return fail("ranked-item-out-of-range",
                  StringPrintf("ranked row %zu references item %u >= %u", i,
                               row.item, g.num_items()));
    }
    if (g.ExternalItemId(row.item) != row.external_id) {
      return fail("ranked-external-id-mismatch",
                  StringPrintf("ranked item %u carries external id %lld",
                               row.item,
                               static_cast<long long>(row.external_id)));
    }
    if (seen_items[row.item] != 0) {
      return fail("ranked-duplicate",
                  StringPrintf("item %u ranked twice", row.item));
    }
    seen_items[row.item] = 1;
    if (i > 0) {
      const core::RankedItem& prev = ranked->items[i - 1];
      if (row.risk > prev.risk ||
          (row.risk == prev.risk && row.external_id < prev.external_id)) {
        return fail("ranked-not-sorted",
                    StringPrintf("ranked items out of order at row %zu", i));
      }
    }
  }
  return Status::Ok();
}

}  // namespace ricd::check
