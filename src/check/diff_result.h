#ifndef RICD_CHECK_DIFF_RESULT_H_
#define RICD_CHECK_DIFF_RESULT_H_

#include "common/status.h"
#include "ricd/framework.h"
#include "serve/verdict_store.h"
#include "table/click_table.h"

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

/// The online contract's oracle: a published snapshot must equal the
/// offline run `want` over the consolidated rows `retained` of its cut.
/// Returns OK when `got` flags exactly want's users, then items, in
/// ascending id order with bit-identical risks (`verdict-users`,
/// `verdict-items`), and blocks exactly the retained (user, item) rows
/// whose endpoints are both flagged (`verdict-pairs`); else Internal naming
/// the first divergence in the DiffPipelineResult message format.
Status DiffVerdictSnapshot(const core::FrameworkResult& want,
                           const table::ClickTable& retained,
                           const serve::VerdictSnapshot& got);

}  // namespace ricd::check

#endif  // RICD_CHECK_DIFF_RESULT_H_
