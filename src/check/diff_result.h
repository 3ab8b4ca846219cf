#ifndef RICD_CHECK_DIFF_RESULT_H_
#define RICD_CHECK_DIFF_RESULT_H_

#include "common/status.h"
#include "ricd/framework.h"

namespace ricd::check {

/// The result-diff oracle behind every bit-identity contract of the
/// offline pipeline (fresh vs snapshot-loaded graph, 1 vs N workers, ...).
/// Returns OK when `got` equals `want` field for field, else Internal
/// naming the first divergence as `validate.diff: <tag>: <field>: want W,
/// got G`, checking in order: group members, then group count (`groups`);
/// ranked users, then items, row by row: dense id, external id, exact risk
/// (`ranked-users`, `ranked-items`); effective parameters; feedback rounds;
/// extraction, then screening counters.
Status DiffPipelineResult(const core::FrameworkResult& want,
                          const core::FrameworkResult& got);

}  // namespace ricd::check

#endif  // RICD_CHECK_DIFF_RESULT_H_
