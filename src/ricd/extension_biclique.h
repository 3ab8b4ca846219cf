#ifndef RICD_RICD_EXTENSION_BICLIQUE_H_
#define RICD_RICD_EXTENSION_BICLIQUE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "engine/worker_engine.h"
#include "graph/bipartite_graph.h"
#include "graph/group.h"
#include "graph/mutable_view.h"
#include "ricd/params.h"

namespace ricd::core {

/// Counters reported by one extraction run (used by the ablation bench).
struct ExtractionStats {
  uint32_t users_removed_core = 0;
  uint32_t items_removed_core = 0;
  uint32_t users_removed_square = 0;
  uint32_t items_removed_square = 0;
  uint32_t sweeps_run = 0;
};

/// The (alpha, k1, k2)-extension biclique extraction algorithm (paper
/// Algorithm 3). Two cooperating pruning strategies shrink the graph until
/// every surviving vertex can plausibly belong to an extension biclique:
///
///  * CorePruning (Lemma 1): users need active degree >= ceil(alpha * k2),
///    items >= ceil(alpha * k1); removals cascade to a fixpoint.
///  * SquarePruning (Lemma 2): a surviving user must have at least k1
///    (alpha, k2)-neighbors — users sharing >= ceil(k2 * alpha) items with
///    it, the vertex itself included (Definition 4 admits u' = u) — and
///    symmetrically for items. Candidates are processed in non-decreasing
///    order of two-hop neighborhood size (the reduce2Hop ordering of [6]),
///    with immediate removal so cascades shrink later neighborhoods.
///
/// Both pruning phases are parallel AND deterministic: CorePruning runs as
/// level-synchronous frontiers (the fixpoint is order-independent), and
/// each SquarePruning side pass evaluates every candidate once against the
/// pass-start view. The evaluation reads the candidate's sparse counterpart
/// rows entry by entry and stops at its m-th witness (the m-th same-side
/// vertex whose common-counterpart count reaches the threshold); only when
/// they fall short does it add its dense rows (rows of at least ⌈n/64⌉
/// entries, kept as bitsets over the n same-side vertices) into bit-sliced
/// counters, one block of 512 same-side ids at a time in ascending local
/// id, and stops in the block of its m-th witness. Pass-start PASSes that
/// lean on a pass-start FAIL placed earlier in the walk are re-evaluated
/// in parallel with those FAILs dead; then the pass commits in candidate
/// order, rechecking a pass only when one of its witnesses was removed
/// earlier in the walk. Each pass leaves its survivors' active degrees and
/// witnesses on the view as certificates, and the next pass of that side
/// takes a certified candidate whose degree is unchanged and whose
/// witnesses are all active as a pass without evaluating it. The schedule
/// is provably equivalent to the sequential immediate-removal one
/// (DESIGN.md §9.2), so output is bit-identical for every worker count.
///
/// The surviving subgraph's connected components with >= k1 users and
/// >= k2 items are returned as suspicious groups.
class ExtensionBicliqueExtractor {
 public:
  /// `engine` runs every data-parallel phase (degree scans, two-hop sizes,
  /// frontier expansion, Lemma-2 evaluation).
  explicit ExtensionBicliqueExtractor(
      RicdParams params,
      const engine::WorkerEngine* engine = &engine::DefaultEngine())
      : params_(params), engine_(engine) {}

  /// Runs pruning + component extraction over `graph`. Fails with
  /// InvalidArgument on out-of-domain parameters (alpha outside (0, 1],
  /// zero k1/k2).
  Result<std::vector<graph::Group>> Extract(const graph::BipartiteGraph& graph,
                                            ExtractionStats* stats = nullptr) const;

  /// Runs only CorePruning + components (the SquarePruning ablation arm).
  Result<std::vector<graph::Group>> ExtractCoreOnly(
      const graph::BipartiteGraph& graph, ExtractionStats* stats = nullptr) const;

  /// Exposed for tests: one CorePruning fixpoint pass over `view`.
  void CorePruning(graph::MutableView& view, ExtractionStats* stats) const;

  /// Exposed for tests: one SquarePruning pass (users then items) over
  /// `view`. `ordered` enables the two-hop candidate ordering; disabling it
  /// is the ordering-ablation arm. Each side pass uses and then replaces the
  /// witness certificates `view` carries for that side.
  void SquarePruning(graph::MutableView& view, bool ordered,
                     ExtractionStats* stats) const;

  /// Exposed for tests: one SquarePruning side pass, which removes only
  /// `side` vertices.
  void SquarePruneSide(graph::MutableView& view, graph::Side side, bool ordered,
                       ExtractionStats* stats) const;

 private:
  Result<std::vector<graph::Group>> ExtractImpl(const graph::BipartiteGraph& graph,
                                                bool square,
                                                ExtractionStats* stats) const;

  RicdParams params_;
  const engine::WorkerEngine* engine_;
};

}  // namespace ricd::core

#endif  // RICD_RICD_EXTENSION_BICLIQUE_H_
