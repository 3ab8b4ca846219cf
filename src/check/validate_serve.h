#ifndef RICD_CHECK_VALIDATE_SERVE_H_
#define RICD_CHECK_VALIDATE_SERVE_H_

#include "common/status.h"
#include "serve/ingest_queue.h"
#include "serve/verdict_store.h"

namespace ricd::check {

/// Serving-layer invariants, following the validate.h conventions: stable
/// `validate.serve: <tag>:` message prefixes, `check.violations` counter
/// bumps, always compiled, executed behind ValidationEnabled() by the
/// DetectionService refresh loop (and unconditionally by tests).

/// Structural audit of one snapshot: member id vectors sorted and unique,
/// risk vectors parallel to their id vectors, blocked pairs sorted/unique
/// with both endpoints flagged, and stats self-consistent
/// (applied <= accepted).
Status ValidateVerdictSnapshot(const serve::VerdictSnapshot& snapshot);

/// Publication-order invariant between two consecutive snapshots: the epoch
/// strictly increases and the serve counters are monotone. Verdicts may
/// change either way — every publish is a fresh offline run over its cut,
/// so it retracts whatever the retained rows no longer support.
Status ValidateVerdictTransition(const serve::VerdictSnapshot& prev,
                                 const serve::VerdictSnapshot& next);

/// Queue accounting invariants on one stats sample: popped never exceeds
/// pushed, depth == pushed - popped, depth bounded by capacity. With
/// `expect_quiescent` (no concurrent producers/consumer — after a drain)
/// the depth must be exactly zero.
Status ValidateIngestAccounting(const serve::IngestQueueStats& stats,
                                bool expect_quiescent);

}  // namespace ricd::check

#endif  // RICD_CHECK_VALIDATE_SERVE_H_
