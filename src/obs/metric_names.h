#ifndef RICD_OBS_METRIC_NAMES_H_
#define RICD_OBS_METRIC_NAMES_H_

/// Central registry of every dotted instrument name used by library code.
/// Naming convention stays `module.stage.metric` (see MetricsRegistry); the
/// point of routing all library call sites through these constants is that
/// a typo'd name no longer silently creates a dead series — the
/// `metric-name-literal` ricd_lint rule rejects ad-hoc string literals in
/// GetCounter/GetGauge/GetHistogram calls anywhere under src/. Tests,
/// benches and tools may still use throwaway literal names.
///
/// Keep the list grouped by module and alphabetical within a group, so a
/// reviewer can diff the exported series of a release at a glance.

namespace ricd::obs::metric_names {

// --- check: invariant validators ---
inline constexpr char kCheckValidationsRun[] = "check.validations_run";
inline constexpr char kCheckViolations[] = "check.violations";

// --- engine: worker pool ---
inline constexpr char kEnginePoolQueueWaitSeconds[] =
    "engine.pool.queue_wait_seconds";
inline constexpr char kEnginePoolTaskRunSeconds[] =
    "engine.pool.task_run_seconds";
inline constexpr char kEnginePoolTasksTotal[] = "engine.pool.tasks_total";
inline constexpr char kEnginePoolUtilization[] = "engine.pool.utilization";
inline constexpr char kEnginePoolWorkers[] = "engine.pool.workers";

// --- gen: scenario generator ---
inline constexpr char kGenScenarioInjectedGroups[] =
    "gen.scenario.injected_groups";
inline constexpr char kGenScenarioRows[] = "gen.scenario.rows";

// --- ricd: detection pipeline ---
inline constexpr char kRicdExtractionCandidateGroups[] =
    "ricd.extraction.candidate_groups";
inline constexpr char kRicdExtractionCoreLevels[] =
    "ricd.extraction.core_levels";
inline constexpr char kRicdExtractionItemsPrunedCore[] =
    "ricd.extraction.items_pruned_core";
inline constexpr char kRicdExtractionItemsPrunedSquare[] =
    "ricd.extraction.items_pruned_square";
// SquarePruning dense-row words added into the Lemma-2 test's bit-sliced
// counters: a candidate whose sparse rows give fewer than m witnesses adds
// each of its dense rows, ⌈n/64⌉ words apiece (n: the pass's same-side
// active count), rechecks included.
inline constexpr char kRicdExtractionDenseWords[] =
    "ricd.extraction.dense_words";
// SquarePruning re-evaluations before the commit walk, run in parallel:
// pass-start PASSes with a witness that is a pass-start FAIL placed earlier
// in the walk, re-evaluated with every such FAIL dead.
inline constexpr char kRicdExtractionParallelRechecks[] =
    "ricd.extraction.parallel_rechecks";
// SquarePruning serial rechecks: PASSes re-evaluated in the commit walk
// because one of their witnesses was removed earlier in it.
inline constexpr char kRicdExtractionRoundRechecks[] =
    "ricd.extraction.round_rechecks";
// SquarePruning side passes, one per side per sweep.
inline constexpr char kRicdExtractionRounds[] = "ricd.extraction.rounds";
// SquarePruning pass-start Lemma-2 evaluations, one per candidate per side
// pass that is not a witness skip (rechecks not included).
inline constexpr char kRicdExtractionScratchReuses[] =
    "ricd.extraction.scratch_reuses";
inline constexpr char kRicdExtractionSweeps[] = "ricd.extraction.sweeps";
// SquarePruning second-hop entries the Lemma-2 test reads one at a time:
// entries of sparse rows only (rows under ⌈n/64⌉ entries), rechecks
// included. Dense rows are counted in dense_words instead.
inline constexpr char kRicdExtractionTwoHopEntries[] =
    "ricd.extraction.two_hop_entries";
// SquarePruning candidates taken as pass-start PASSes without a Lemma-2
// evaluation: the previous pass of their side certified them, their active
// degree is unchanged and their witnesses are all active.
inline constexpr char kRicdExtractionWitnessSkips[] =
    "ricd.extraction.witness_skips";
inline constexpr char kRicdExtractionUsersPrunedCore[] =
    "ricd.extraction.users_pruned_core";
inline constexpr char kRicdExtractionUsersPrunedSquare[] =
    "ricd.extraction.users_pruned_square";
inline constexpr char kRicdFeedbackLastGroupsSurvived[] =
    "ricd.feedback.last_groups_survived";
inline constexpr char kRicdFeedbackLastNodesFlagged[] =
    "ricd.feedback.last_nodes_flagged";
inline constexpr char kRicdFeedbackRoundsTotal[] = "ricd.feedback.rounds_total";
inline constexpr char kRicdGenerationSeedKeptItems[] =
    "ricd.generation.seed_kept_items";
inline constexpr char kRicdGenerationSeedKeptUsers[] =
    "ricd.generation.seed_kept_users";
inline constexpr char kRicdIdentificationFlaggedItems[] =
    "ricd.identification.flagged_items";
inline constexpr char kRicdIdentificationFlaggedUsers[] =
    "ricd.identification.flagged_users";
inline constexpr char kRicdScreeningGroupsIn[] = "ricd.screening.groups_in";
inline constexpr char kRicdScreeningGroupsSurvived[] =
    "ricd.screening.groups_survived";
inline constexpr char kRicdScreeningItemsRemoved[] =
    "ricd.screening.items_removed";
inline constexpr char kRicdScreeningUsersRemoved[] =
    "ricd.screening.users_removed";

// --- serve: online detection service + TCP front end ---
inline constexpr char kServeDrainBatchSeconds[] = "serve.drain_batch.seconds";
inline constexpr char kServeEpoch[] = "serve.epoch";
inline constexpr char kServeIngestAccepted[] = "serve.ingest.accepted";
inline constexpr char kServeIngestBatches[] = "serve.ingest.batches";
inline constexpr char kServeIngestRejected[] = "serve.ingest.rejected";
inline constexpr char kServePublishSeconds[] = "serve.publish.seconds";
inline constexpr char kServeQueries[] = "serve.queries";
inline constexpr char kServeQueueDepth[] = "serve.queue.depth";
inline constexpr char kServeQueueWaitSeconds[] = "serve.queue.wait_seconds";
/// Detection runs, one per publish.
inline constexpr char kServeRebuilds[] = "serve.rebuilds";
inline constexpr char kServeRefreshSeconds[] = "serve.refresh.seconds";
inline constexpr char kServeRequestIngestSeconds[] =
    "serve.request.ingest_seconds";
inline constexpr char kServeRequestQuerySeconds[] =
    "serve.request.query_seconds";
inline constexpr char kServeServerProtocolErrors[] =
    "serve.server.protocol_errors";
inline constexpr char kServeServerRequestSeconds[] =
    "serve.server.request_seconds";
inline constexpr char kServeServerRequests[] = "serve.server.requests";
inline constexpr char kServeTraceSampled[] = "serve.trace.sampled";

// --- window: bounded click retention ---
inline constexpr char kWindowEvictRowsTotal[] = "window.evict.rows_total";
inline constexpr char kWindowEvictSegmentsTotal[] =
    "window.evict.segments_total";
inline constexpr char kWindowRetainedRows[] = "window.retained.rows";
inline constexpr char kWindowRetainedSegments[] = "window.retained.segments";
inline constexpr char kWindowSealSegmentsTotal[] = "window.seal.segments_total";

// --- snapshot: binary graph container ---
inline constexpr char kSnapshotBytesMapped[] = "snapshot.bytes_mapped";
inline constexpr char kSnapshotBytesWritten[] = "snapshot.bytes_written";
inline constexpr char kSnapshotLoads[] = "snapshot.loads";
inline constexpr char kSnapshotSaves[] = "snapshot.saves";

}  // namespace ricd::obs::metric_names

#endif  // RICD_OBS_METRIC_NAMES_H_
