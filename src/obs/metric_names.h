#ifndef TREELATTICE_OBS_METRIC_NAMES_H_
#define TREELATTICE_OBS_METRIC_NAMES_H_

/// The single registry of observability metric names.
///
/// Every metric TreeLattice records is declared here and nowhere else;
/// instrumentation sites pass these constants to
/// MetricsRegistry::counter()/gauge()/histogram(). tools/tl_lint.py
/// rejects string literals at registry call sites anywhere under src/, so
/// the full telemetry surface of the system is readable in this one file
/// (and dashboards/alerts can be reviewed against it in one diff).
///
/// Naming scheme: lowercase dot-separated "<subsystem>.<metric>"; dots
/// become underscores in the Prometheus rendering (metrics.h).

namespace treelattice {
namespace obs {
namespace metric_names {

// -- estimators (core/estimator_metrics.h) ----------------------------------
inline constexpr char kEstimatorSummaryHits[] = "estimator.summary_hits";
inline constexpr char kEstimatorSummaryMisses[] = "estimator.summary_misses";
inline constexpr char kEstimatorExhaustiveZeros[] =
    "estimator.exhaustive_zeros";
inline constexpr char kEstimatorDecompositions[] = "estimator.decompositions";
inline constexpr char kEstimatorZeroOverlapFallbacks[] =
    "estimator.zero_overlap_fallbacks";
inline constexpr char kEstimatorMemoHits[] = "estimator.memo_hits";
inline constexpr char kEstimatorDecompositionDepth[] =
    "estimator.decomposition_depth";
inline constexpr char kEstimatorVotingFanout[] = "estimator.voting_fanout";
inline constexpr char kEstimatorCoverSteps[] = "estimator.cover_steps";
inline constexpr char kEstimatorDeadlineExceeded[] =
    "estimator.deadline_exceeded";
inline constexpr char kEstimatorDegraded[] = "estimator.degraded";

// -- twigs (twig/twig.cc) ---------------------------------------------------
// Canonical codes built by the one canonicalizer (Twig::SubsetCode), for
// whole twigs and for the estimator's node subsets alike.
inline constexpr char kTwigCanonicalCodes[] = "twig.canonical_codes";

// -- mining (mining/lattice_builder.cc) -------------------------------------
inline constexpr char kMiningCandidatesGenerated[] =
    "mining.candidates_generated";
inline constexpr char kMiningCandidatesPrunedApriori[] =
    "mining.candidates_pruned_apriori";
inline constexpr char kMiningCandidatesCounted[] = "mining.candidates_counted";
inline constexpr char kMiningPatternsInserted[] = "mining.patterns_inserted";
inline constexpr char kMiningLevelBuildMicros[] = "mining.level_build_micros";

// -- summary persistence (summary/summary_format.cc) ------------------------
inline constexpr char kSummarySaves[] = "summary.saves";
inline constexpr char kSummarySaveBytes[] = "summary.save_bytes";
inline constexpr char kSummaryLoads[] = "summary.loads";
inline constexpr char kSummaryLoadBytes[] = "summary.load_bytes";
inline constexpr char kSummaryCrcFailures[] = "summary.crc_failures";
inline constexpr char kSummarySalvageLoads[] = "summary.salvage_loads";

// -- io (io/posix_env.cc, io/fault_env.cc) ----------------------------------
inline constexpr char kIoBytesWritten[] = "io.bytes_written";
inline constexpr char kIoBytesRead[] = "io.bytes_read";
inline constexpr char kIoAppends[] = "io.appends";
inline constexpr char kIoReads[] = "io.reads";
inline constexpr char kIoFsyncs[] = "io.fsyncs";
inline constexpr char kIoRenames[] = "io.renames";
inline constexpr char kIoDeletes[] = "io.deletes";
inline constexpr char kIoFilesOpened[] = "io.files_opened";
inline constexpr char kIoFaultInjectedFailures[] =
    "io.fault.injected_failures";

// -- match (match/brute_force.cc) -------------------------------------------
inline constexpr char kMatchBruteForceNodesVisited[] =
    "match.brute_force.nodes_visited";

// -- serve (serve/server.cc, serve/snapshot.cc) -----------------------------
inline constexpr char kServeRequests[] = "serve.requests";
inline constexpr char kServeResponsesOk[] = "serve.responses_ok";
inline constexpr char kServeResponsesError[] = "serve.responses_error";
inline constexpr char kServeShed[] = "serve.shed";
inline constexpr char kServeQueueDepthPeak[] = "serve.queue_depth_peak";
inline constexpr char kServeLatencyMicros[] = "serve.latency_micros";
inline constexpr char kServeReloads[] = "serve.reloads";
inline constexpr char kServeReloadFailures[] = "serve.reload_failures";
inline constexpr char kServeSnapshotVersion[] = "serve.snapshot_version";

// -- serve batch envelopes (serve/server.cc) --------------------------------
// One "line" is one JSON array request carrying N queries; "queries" counts
// the queries inside batch lines only (singles keep serve.requests).
inline constexpr char kServeBatchLines[] = "serve.batch.lines";
inline constexpr char kServeBatchQueries[] = "serve.batch.queries";
inline constexpr char kServeBatchDupQueries[] = "serve.batch.dup_queries";
inline constexpr char kServeBatchCacheHits[] = "serve.batch.cache_hits";
inline constexpr char kServeBatchSize[] = "serve.batch.size";
inline constexpr char kServeBatchShedQueries[] = "serve.batch.shed_queries";

// -- serve request-stage timeline (serve/request_trace.cc) ------------------
// One histogram per adjacent pair of RequestTrace stamps; a request whose
// path skips a stage (error before estimate, orphaned before flush) simply
// records nothing there. DESIGN.md §12 documents the taxonomy.
inline constexpr char kServeStageAdmitMicros[] = "serve.stage.admit_micros";
inline constexpr char kServeStageQueueWaitMicros[] =
    "serve.stage.queue_wait_micros";
inline constexpr char kServeStageEstimateMicros[] =
    "serve.stage.estimate_micros";
inline constexpr char kServeStageSerializeMicros[] =
    "serve.stage.serialize_micros";
inline constexpr char kServeStageFlushMicros[] = "serve.stage.flush_micros";
inline constexpr char kServeStageTotalMicros[] = "serve.stage.total_micros";
inline constexpr char kServeQueueDepth[] = "serve.queue_depth";
inline constexpr char kServeSlowQueries[] = "serve.slow_queries";

// -- admin endpoint (serve/admin.cc, serve/transport.cc) --------------------
inline constexpr char kAdminRequests[] = "admin.requests";
inline constexpr char kAdminResponsesError[] = "admin.responses_error";
inline constexpr char kAdminActive[] = "admin.active";
inline constexpr char kAdminBytesOut[] = "admin.bytes_out";

// -- serve network transport (serve/transport.cc) ---------------------------
inline constexpr char kNetAccepted[] = "serve.net.accepted";
inline constexpr char kNetRejected[] = "serve.net.rejected";
inline constexpr char kNetActive[] = "serve.net.active";
inline constexpr char kNetFrames[] = "serve.net.frames";
inline constexpr char kNetFramesOversized[] = "serve.net.frames_oversized";
inline constexpr char kNetBytesIn[] = "serve.net.bytes_in";
inline constexpr char kNetBytesOut[] = "serve.net.bytes_out";
inline constexpr char kNetIdleTimeouts[] = "serve.net.idle_timeouts";
inline constexpr char kNetRequestTimeouts[] = "serve.net.request_timeouts";
inline constexpr char kNetBackpressureStalls[] =
    "serve.net.backpressure_stalls";
inline constexpr char kNetResets[] = "serve.net.resets";
inline constexpr char kNetResponsesOrphaned[] =
    "serve.net.responses_orphaned";
inline constexpr char kNetInjectedFaults[] = "serve.net.injected_faults";
inline constexpr char kNetDrainMicros[] = "serve.net.drain_micros";
inline constexpr char kNetLoopLagMicros[] = "serve.net.loop_lag_micros";
inline constexpr char kNetDispatchBatch[] = "serve.net.dispatch_batch";
inline constexpr char kNetPollerErrors[] = "serve.net.poller_errors";
inline constexpr char kNetWrites[] = "serve.net.writes";
inline constexpr char kNetInterestChanges[] = "serve.net.interest_changes";

// -- estimate cache (core/estimate_cache.cc) --------------------------------
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheEvictions[] = "cache.evictions";
inline constexpr char kCacheInvalidations[] = "cache.invalidations";
inline constexpr char kCacheProbeMicros[] = "cache.probe_micros";

}  // namespace metric_names
}  // namespace obs
}  // namespace treelattice

#endif  // TREELATTICE_OBS_METRIC_NAMES_H_
