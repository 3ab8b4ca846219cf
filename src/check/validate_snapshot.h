#ifndef RICD_CHECK_VALIDATE_SNAPSHOT_H_
#define RICD_CHECK_VALIDATE_SNAPSHOT_H_

#include <cstddef>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace ricd::check {

/// Validators for the src/snapshot binary graph container, run by the
/// loader BEFORE any section pointer is formed, so a truncated, bit-flipped
/// or adversarially resized file yields a clean error Status — never an
/// out-of-bounds read. Like the graph validators, every failure carries a
/// stable `validate.snapshot: <tag>:` message prefix (distinct per failure
/// mode, asserted by tests/snapshot_fuzz_test.cc) and increments the
/// `check.violations` counter. These run unconditionally (not behind
/// ValidationEnabled()): a snapshot file is untrusted input.

/// Structural audit of the header and section table of the `bytes`-byte
/// snapshot image at `data`: magic/version/header size, section count cap,
/// declared-vs-actual file size, per-section bounds, alignment, overlap and
/// count-derived size consistency, duplicate/missing required sections, and
/// count caps (so size arithmetic cannot overflow). O(section_count^2) in
/// the overlap check with section_count <= 64. Does NOT touch payload
/// bytes; pair with VerifySnapshotChecksum for content integrity.
Status ValidateSnapshotHeader(const void* data, size_t bytes);

/// Recomputes the whole-file checksum (header checksum field taken as zero)
/// and compares it with the stored one. O(bytes). Call after
/// ValidateSnapshotHeader has accepted the header.
Status VerifySnapshotChecksum(const void* data, size_t bytes);

/// Bounds audit of decoded section spans, run before the graph is adopted:
/// span sizes mutually consistent, offset arrays start at 0, are monotone
/// and terminate at the edge count, and every adjacency id addresses a
/// vertex on the opposite side. O(U + V + E) with sequential scans. This is
/// what makes every accessor of the adopted graph memory-safe even for a
/// file that is internally consistent with its checksum but semantically
/// hostile; the deeper semantic audit (sortedness, transpose agreement,
/// click totals) remains check::ValidateBipartiteGraph behind
/// ValidationEnabled().
Status ValidateAdoptedSections(const graph::GraphSections& s);

}  // namespace ricd::check

#endif  // RICD_CHECK_VALIDATE_SNAPSHOT_H_
