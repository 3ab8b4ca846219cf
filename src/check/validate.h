#ifndef RICD_CHECK_VALIDATE_H_
#define RICD_CHECK_VALIDATE_H_

#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "graph/group.h"
#include "graph/mutable_view.h"
#include "ricd/identification.h"
#include "ricd/params.h"

namespace ricd::check {

/// Machine-checked structural invariants for the RICD pipeline. The paper's
/// detection guarantees (Theorems 1-2) assume the bipartite CSR graph, the
/// (alpha, k1, k2)-extension-biclique extractor and the screening stages
/// preserve their invariants; a silently corrupted adjacency list does not
/// crash, it mis-flags users. Every validator below returns a failed Status
/// whose message starts with a stable `validate.<area>: <tag>:` prefix, so
/// tests (and humans bisecting a regression) can tell failure modes apart.
///
/// Validators are always compiled; call sites in the pipeline execute them
/// behind ValidationEnabled(). Each failure additionally increments the
/// `check.violations` counter in the global metrics registry, and each
/// executed validation bumps `check.validations_run`.

/// True when pipeline call sites should run validators. Resolution order:
///  1. SetValidationEnabled() override, if called;
///  2. the RICD_VALIDATE environment variable (1/on/true vs 0/off/false);
///  3. build-type default: on when NDEBUG is not defined, off otherwise.
bool ValidationEnabled();

/// Programmatic override (the tool's --validate flag, tests). Passing
/// `enabled` wins over the environment variable from then on.
void SetValidationEnabled(bool enabled);

/// Full structural audit of a dual-CSR bipartite graph in O(U + V + E):
/// offset monotonicity and terminal edge counts, sorted + deduplicated
/// adjacency with in-range neighbor ids, edge multiplicity >= 1, per-vertex
/// and global click totals, user/item degree-sum symmetry, exact
/// user-CSR/item-CSR transpose agreement (ids and weights), and external-id
/// lookup round-trips. Returns Corruption with a distinct tag per failure.
Status ValidateBipartiteGraph(const graph::BipartiteGraph& graph);

/// Verifies `group` really is the connected (alpha, k1, k2)-extension
/// biclique candidate the extractor claims: member lists sorted, unique and
/// in range, at least k1 users and k2 items, every user adjacent to at
/// least ceil(alpha * k2) of the group's items and every item adjacent to
/// at least ceil(alpha * k1) of the group's users (Definition 3 / Lemma 1
/// applied to the emitted subgraph). Returns Internal on violation.
Status ValidateExtensionBiclique(const graph::BipartiteGraph& graph,
                                 const graph::Group& group,
                                 const core::RicdParams& params);

/// Recomputes every active vertex's active degree and the per-side active
/// counts of `view` from scratch and compares them with the incrementally
/// maintained values (the invariant edge deletions must preserve). O(U + V
/// + E). Returns Internal on mismatch.
Status ValidateMutableView(const graph::MutableView& view);

/// Audits the Lemma-2 witness certificates SquarePruning left on `view`
/// (graph::WitnessCertificates), the invariant its cross-sweep skip relies
/// on. Each side's certificates must be well formed: ascending in-range
/// vertices, one degree and `per_vertex` in-range witnesses each. Then, for
/// each certificate whose vertex is active with its certified active degree
/// and whose witnesses are all active — exactly the ones the next pass may
/// skip — every witness must share at least `common_needed` active
/// counterparts with the vertex, recomputed from the source graph. O(E +
/// certified vertices × their witnesses' degrees). Returns Internal on
/// violation.
Status ValidateWitnessCertificates(const graph::MutableView& view);

/// Checks a screening/identification result against its graph: groups are
/// non-empty, reference live (in-range) vertices, and contain no duplicate
/// members; when `ranked` is non-null, its rows are in range, unique,
/// sorted by descending risk (ties: ascending external id), and their
/// external ids match the graph's mapping. Returns Internal on violation.
Status ValidatePipelineResult(const graph::BipartiteGraph& graph,
                              const std::vector<graph::Group>& groups,
                              const core::RankedOutput* ranked = nullptr);

}  // namespace ricd::check

#endif  // RICD_CHECK_VALIDATE_H_
