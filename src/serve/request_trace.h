#ifndef TREELATTICE_SERVE_REQUEST_TRACE_H_
#define TREELATTICE_SERVE_REQUEST_TRACE_H_

#include <cstdint>
#include <string>

namespace treelattice {
namespace serve {

class SlowQueryLog;

/// Per-request stage timeline (DESIGN.md §12), carried with the request
/// through the admission queue and back with its response:
///
///   framed ──▶ admitted ──▶ dequeued ──▶ estimated ──▶ serialized ──▶ flushed
///   (line      (queued      (worker      (answer       (JSON          (bytes
///    parsed)    for a        picked       computed)     rendered)      on the
///               worker)      it up)                                    wire)
///
/// Stamps are microseconds on the steady clock since a process-wide epoch;
/// 0 means "this stage never happened" (an error response skips estimate,
/// an orphaned response never flushes). Adjacent deltas feed the
/// serve.stage.* histograms and, over the slow threshold, the slow-query
/// log — see Finalize below.
///
/// `req_id` is assigned unconditionally (responses always echo it);
/// everything else is recorded only while `active`, which Begin() derives
/// from obs::Enabled() so TREELATTICE_OBS=off zero-costs the stamps (one
/// branch per stage, no clock reads).
struct RequestTrace {
  /// Snapshot of obs::Enabled() at Begin; every stamp site checks it.
  bool active = false;
  /// Process-unique 64-bit request id, echoed as "req" in the response.
  uint64_t req_id = 0;

  uint64_t framed_micros = 0;
  uint64_t admitted_micros = 0;
  uint64_t dequeued_micros = 0;
  uint64_t estimated_micros = 0;
  uint64_t serialized_micros = 0;
  uint64_t flushed_micros = 0;

  /// Twig shape features, filled once the query parses (slow-log keys).
  uint32_t twig_size = 0;
  uint32_t twig_depth = 0;
  uint32_t twig_fanout = 0;
  /// Governor work steps (sub-twig visits, summary lookups, sweep
  /// windows) the line's answered queries charged across every ladder
  /// rung (EstimateResult::work_steps); each distinct query counts once.
  uint64_t work_steps = 0;
  /// Queries carried by the request line: 0 for a single-query line, N
  /// for a batch envelope of N queries (DESIGN.md §14). Slow-log entries
  /// carry it so a slow batch line is distinguishable from a slow query.
  uint32_t batch_size = 0;

  /// Microseconds since the process-wide trace epoch (steady clock).
  static uint64_t NowMicros();

  /// A trace stamped "framed" now; active iff observability is enabled.
  static RequestTrace Begin(uint64_t req_id);

  void StampAdmitted() {
    if (active) admitted_micros = NowMicros();
  }
  void StampDequeued() {
    if (active) dequeued_micros = NowMicros();
  }
  void StampEstimated() {
    if (active) estimated_micros = NowMicros();
  }
  void StampSerialized() {
    if (active) serialized_micros = NowMicros();
  }
  void StampFlushed() {
    if (active) flushed_micros = NowMicros();
  }
};

/// What the request turned into — the slice of the response the finalizer
/// needs for the slow-query log. Owned strings: finalization can outlive
/// the response (it waits for the socket flush).
struct RequestOutcome {
  std::string query;
  std::string rung;        // empty on error
  std::string error_code;  // empty on success
  bool ok = false;
  bool cached = false;
  bool degraded = false;
  int64_t snapshot_version = 0;
};

/// Terminal accounting for one request: records every stage delta whose
/// two stamps exist into the serve.stage.* histograms, and — when the
/// request's total (first stamp to last stamp) is over `slow_log`'s
/// threshold — appends a slow-query entry with the full timeline and the
/// twig shape features. No-op when the trace is inactive; `slow_log` may
/// be null (histograms only).
void FinalizeRequestTrace(const RequestTrace& trace,
                          const RequestOutcome& outcome,
                          SlowQueryLog* slow_log);

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_REQUEST_TRACE_H_
