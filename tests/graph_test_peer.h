#ifndef RICD_TESTS_GRAPH_TEST_PEER_H_
#define RICD_TESTS_GRAPH_TEST_PEER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/mutable_view.h"

namespace ricd::graph {

/// Test-only tools for building broken structures. check_test.cc and
/// property_test.cc use them to corrupt a well-formed structure in one
/// precise way and prove the corresponding validator rejects it with the
/// expected Status — there is no public API for constructing an invalid
/// graph or view, by design. MutableView befriends this struct; graphs are
/// corrupted through a private copy of their arrays, so the original and
/// every copy sharing its storage stay intact.
struct GraphTestPeer {
  /// A graph over a private copy of `g`'s arrays after `fn(arrays)` edits
  /// them.
  template <typename Fn>
  static BipartiteGraph Corrupted(const BipartiteGraph& g, Fn&& fn) {
    const GraphSections s = g.Freeze();
    GraphArrays arrays;
    arrays.user_offsets.assign(s.user_offsets.begin(), s.user_offsets.end());
    arrays.item_offsets.assign(s.item_offsets.begin(), s.item_offsets.end());
    arrays.user_adj.assign(s.user_adj.begin(), s.user_adj.end());
    arrays.item_adj.assign(s.item_adj.begin(), s.item_adj.end());
    arrays.user_clicks.assign(s.user_clicks.begin(), s.user_clicks.end());
    arrays.item_clicks.assign(s.item_clicks.begin(), s.item_clicks.end());
    arrays.user_total_clicks.assign(s.user_total_clicks.begin(),
                                    s.user_total_clicks.end());
    arrays.item_total_clicks.assign(s.item_total_clicks.begin(),
                                    s.item_total_clicks.end());
    arrays.user_ids.assign(s.user_ids.begin(), s.user_ids.end());
    arrays.item_ids.assign(s.item_ids.begin(), s.item_ids.end());
    arrays.total_clicks = s.total_clicks;
    std::forward<Fn>(fn)(arrays);
    return BipartiteGraph::FromArrays(std::move(arrays));
  }

  static std::vector<uint32_t>& UserDegrees(MutableView& view) {
    return view.user_degree_;
  }
  static uint32_t& NumActiveUsers(MutableView& view) {
    return view.num_active_users_;
  }
};

}  // namespace ricd::graph

#endif  // RICD_TESTS_GRAPH_TEST_PEER_H_
