#include "baselines/lpa.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "engine/worker_engine.h"

namespace ricd::baselines {
namespace {

using graph::Side;
using graph::VertexId;

/// Shared voting kernel: the winning label of node (side, v) given a label
/// array over the unified node space (users at [0, nu), items at [nu, ...)).
uint32_t VoteWinner(const graph::BipartiteGraph& g, Side side, VertexId v,
                    uint32_t nu, bool weighted,
                    const std::vector<uint32_t>& labels,
                    std::unordered_map<uint32_t, uint64_t>& votes) {
  votes.clear();
  const uint32_t self = side == Side::kUser ? v : nu + v;
  const uint32_t neighbor_offset = side == Side::kUser ? nu : 0;
  const auto neighbors = g.Neighbors(side, v);
  const auto clicks = g.EdgeClicks(side, v);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const uint64_t w = weighted ? clicks[i] : 1;
    votes[labels[neighbor_offset + neighbors[i]]] += w;
  }
  uint32_t best_label = labels[self];
  uint64_t best_votes = 0;
  for (const auto& [lab, cnt] : votes) {
    if (cnt > best_votes || (cnt == best_votes && lab < best_label)) {
      best_votes = cnt;
      best_label = lab;
    }
  }
  return best_label;
}

}  // namespace

Result<DetectionResult> Lpa::Detect(const graph::BipartiteGraph& g) {
  const uint32_t nu = g.num_users();
  const uint32_t ni = g.num_items();
  const uint32_t n = nu + ni;  // unified node space: users then items

  std::vector<uint32_t> label(n);
  for (uint32_t i = 0; i < n; ++i) label[i] = i;

  if (!params_.synchronous) {
    // Asynchronous: in-place updates in ascending node order.
    std::unordered_map<uint32_t, uint64_t> votes;
    for (uint32_t round = 0; round < params_.max_rounds; ++round) {
      bool changed = false;
      for (VertexId u = 0; u < nu; ++u) {
        if (g.Degree(Side::kUser, u) == 0) continue;
        const uint32_t next =
            VoteWinner(g, Side::kUser, u, nu, params_.weighted, label, votes);
        if (next != label[u]) {
          label[u] = next;
          changed = true;
        }
      }
      for (VertexId v = 0; v < ni; ++v) {
        if (g.Degree(Side::kItem, v) == 0) continue;
        const uint32_t next =
            VoteWinner(g, Side::kItem, v, nu, params_.weighted, label, votes);
        if (next != label[nu + v]) {
          label[nu + v] = next;
          changed = true;
        }
      }
      if (!changed) break;
    }
  } else {
    // Synchronous BSP: each round is two supersteps — all users vote
    // against the committed item labels, barrier, then all items vote
    // against the fresh user labels. Alternating sides avoids the label
    // oscillation fully-synchronous updates exhibit on bipartite graphs
    // (noted already by Raghavan et al.). Each engine worker owns a
    // disjoint vertex range, so supersteps are parallel and the result is
    // independent of the worker count.
    const auto& engine = engine::DefaultEngine();
    std::vector<uint8_t> worker_changed(engine.num_workers(), 0);
    const auto superstep = [&](Side side, uint32_t count) {
      engine.ParallelForChunks(count, [&](size_t worker,
                                          engine::VertexRange range) {
        std::unordered_map<uint32_t, uint64_t> votes;
        for (VertexId v = range.begin; v < range.end; ++v) {
          if (g.Degree(side, v) == 0) continue;
          const uint32_t self = side == Side::kUser ? v : nu + v;
          const uint32_t winner =
              VoteWinner(g, side, v, nu, params_.weighted, label, votes);
          if (winner != label[self]) {
            // Disjoint per-vertex writes: v is owned by this worker, and
            // this superstep only reads the *other* side's labels.
            label[self] = winner;
            worker_changed[worker] = 1;
          }
        }
      });
    };
    for (uint32_t round = 0; round < params_.max_rounds; ++round) {
      std::fill(worker_changed.begin(), worker_changed.end(), 0);
      superstep(Side::kUser, nu);
      superstep(Side::kItem, ni);
      bool changed = false;
      for (const auto c : worker_changed) changed |= c != 0;
      if (!changed) break;
    }
  }

  // Materialize communities.
  std::unordered_map<uint32_t, graph::Group> communities;
  for (VertexId u = 0; u < nu; ++u) {
    if (g.Degree(Side::kUser, u) == 0) continue;
    communities[label[u]].users.push_back(u);
  }
  for (VertexId v = 0; v < ni; ++v) {
    if (g.Degree(Side::kItem, v) == 0) continue;
    communities[label[nu + v]].items.push_back(v);
  }

  std::vector<uint32_t> keys;
  keys.reserve(communities.size());
  for (const auto& [k, grp] : communities) keys.push_back(k);
  std::sort(keys.begin(), keys.end());

  DetectionResult result;
  for (const uint32_t k : keys) {
    auto& grp = communities[k];
    if (grp.users.size() < params_.min_users ||
        grp.items.size() < params_.min_items) {
      continue;
    }
    std::sort(grp.users.begin(), grp.users.end());
    std::sort(grp.items.begin(), grp.items.end());
    result.groups.push_back(std::move(grp));
  }
  return result;
}

}  // namespace ricd::baselines
