#ifndef TREELATTICE_SERVE_SERVER_H_
#define TREELATTICE_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batch_estimator.h"
#include "core/degrading_estimator.h"
#include "core/estimate_cache.h"
#include "serve/request_trace.h"
#include "serve/snapshot.h"
#include "twig/twig.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace serve {

/// One query of a request line.
struct ServeRequest {
  uint64_t id = 0;
  /// Query text: twig syntax "a(b,c)" or the XPath subset "/a/b[c]"
  /// (anything containing '/' or '[' is treated as XPath).
  std::string query;
  /// Per-query deadline; <= 0 uses the server default.
  double deadline_millis = 0.0;
  /// Per-query work-step cap; 0 uses the server's. It may lower the
  /// server's cap (ServerOptions::default_max_work_steps), never raise it.
  uint64_t max_work_steps = 0;
};

/// The answer to one query.
struct ServeResponse {
  uint64_t id = 0;
  /// Process-unique request id (RequestTrace::req_id) of the line, echoed
  /// as "req" in the wire JSON — the correlation key across logs, traces,
  /// and /slowz.
  uint64_t req = 0;
  std::string query;
  bool ok = false;
  double estimate = 0.0;
  /// Degradation-ladder rung that answered: "primary" or "fixed-size"
  /// (empty on error).
  std::string rung;
  bool degraded = false;
  /// True when the estimate was served from the snapshot-scoped cache
  /// (always a primary-rung answer).
  bool cached = false;
  std::string error_code;     // StatusCodeToString(code) when !ok
  std::string error_message;  // human detail when !ok
  /// Worker time spent on this query: parsing it, probing the cache and,
  /// on a miss, estimating it. A duplicate inside an array line reports
  /// its first occurrence's time.
  double wall_micros = 0.0;
  /// Version of the snapshot that served the request (0 if none).
  int64_t snapshot_version = 0;

  /// The newline-free JSON wire rendering of this response.
  std::string ToJsonLine() const;
};

/// One request line, admitted and answered as one unit. A scalar line (a
/// bare query or a JSON envelope) carries one query; an array line carries
/// N queries and is answered by one array of N results in the same order
/// (DESIGN.md §14).
struct ServeBatch {
  std::vector<ServeRequest> items;
  /// True for a bare query or envelope line, false for a JSON array line.
  bool scalar = true;
  /// One timeline for the whole line; batch_size records the query count
  /// of an array line.
  RequestTrace trace;
  /// Cancels every query of the line (the transport ties it to the
  /// submitting connection). Null = not cancellable.
  std::shared_ptr<CancelToken> cancel;
};

/// The response to one request line; items are positional (items[i]
/// answers the line's i-th query).
struct ServeBatchResponse {
  std::vector<ServeResponse> items;
  bool scalar = true;
  /// The line's stage timeline, carried back for the final stamps
  /// (serialized, flushed) and terminal accounting by the sink's owner.
  RequestTrace trace;

  /// Appends the newline-free JSON wire rendering to `*out`: the one
  /// response object of a scalar line, or an array of the per-item
  /// objects. The transport renders straight into a connection's output
  /// buffer this way.
  void AppendJsonLine(std::string* out) const;
  /// AppendJsonLine into a fresh string.
  std::string ToJsonLine() const;
};

/// Parses one request line of the serve protocol into `batch->items`:
///   * a bare query, or a JSON envelope
///       {"query": "a(b,c)", "deadline_ms": 50, "max_steps": 100000, "id": 7}
///     with every field but "query" optional, is a scalar line of one
///     query;
///   * a JSON array whose elements are query strings or envelopes is an
///     array line. Empty arrays and, when `max_items` > 0, arrays of more
///     than `max_items` elements are rejected.
/// Lines are trimmed; absent ids are left 0 for the caller to assign.
/// `batch->scalar` is set even for a rejected line, so the caller can echo
/// a rejected scalar line in its error response.
Status ParseRequestLine(std::string_view line, size_t max_items,
                        ServeBatch* batch);

/// The slice of a response the trace finalizer keeps (serve/
/// request_trace.h): a scalar line's query and outcome; for an array line
/// the query "[batch:N]", ok only when every item succeeded, cached or
/// degraded when any item was, and the first error's code.
RequestOutcome OutcomeOf(const ServeBatchResponse& response);

struct ServerOptions {
  /// Worker threads answering queries.
  int workers = 4;
  /// Bounded admission queue; submissions beyond this are shed with
  /// kResourceExhausted instead of growing memory without limit.
  size_t queue_capacity = 128;
  /// Default per-request deadline; 0 = none.
  double default_deadline_millis = 0.0;
  /// Per-request work-step cap, the ceiling of a request's own
  /// "max_steps"; 0 = none. A voting size-8 query makes at most
  /// 1 + 2^8 * 63 = 16,129 steps (each subset decomposed once, at most
  /// C(7,2) votes of 3 visits), so the default trips only on queries far
  /// larger than the paper's, which the ladder's floor then answers.
  uint64_t default_max_work_steps = 65536;
  /// Degradation-ladder configuration shared by all workers.
  DegradingEstimator::Options estimator;
  /// Artificial per-request processing delay — a load-shaping aid for
  /// tests and benches that need to force queue pressure deterministically.
  double worker_delay_millis = 0.0;
  /// Entries of the snapshot-scoped LRU cache of primary-rung estimates;
  /// 0 turns the cache off. Every primary answer is inserted, whatever its
  /// budget (it equals the unlimited answer), and no floor answer is; any
  /// request may be answered from it. Swapping the snapshot implicitly
  /// drops every cached entry (version-fenced per shard).
  size_t estimate_cache_capacity = 1024;
};

/// A worker pool over a bounded admission queue, answering twig/XPath
/// selectivity queries from the current SummarySnapshot through the
/// degradation ladder.
///
/// Lifecycle: construction starts the workers; Shutdown() (or the
/// destructor) stops admission, drains everything already queued, and
/// joins the workers — a graceful drain, never a drop. Reloads happen
/// outside the server by swapping the SnapshotHolder; workers pick up the
/// new snapshot on their next request and in-flight queries finish on the
/// snapshot they started with.
class Server {
 public:
  using ResponseSink = std::function<void(ServeBatchResponse)>;

  /// `snapshots` must outlive the server and should hold a snapshot
  /// before the first Submit (requests answered with no snapshot fail
  /// with kNotFound ... the server itself never crashes). `sink` receives
  /// exactly one response per submitted line, possibly from a worker
  /// thread; invocations are serialized by the server.
  Server(SnapshotHolder* snapshots, ServerOptions options, ResponseSink sink);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits a request line as one queue entry. Capacity is accounted per
  /// query: a line of N queries needs N free slots. Otherwise (or once
  /// shutdown has begun) the whole line is shed: the sink immediately
  /// receives one kResourceExhausted response per query — never a
  /// partially answered line — and Submit returns false.
  bool Submit(ServeBatch batch);

  /// Stops admission, waits for every queued request to be answered, and
  /// joins the workers. Idempotent.
  void Shutdown();

  struct Stats {
    uint64_t submitted = 0;
    uint64_t shed = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t degraded = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t queue_depth = 0;  // admission queue occupancy right now
  };
  Stats GetStats() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// One worker thread's state: the estimator and private label dict bound
  /// to its current snapshot, and buffers that stay warm across lines.
  struct Worker {
    std::shared_ptr<const SummarySnapshot> snapshot;
    std::unique_ptr<BatchEstimator> estimator;
    std::unique_ptr<LabelDict> dict;
    std::vector<Twig> twigs;
    std::vector<EstimateOptions> budgets;
    std::vector<EstimateResult> results;
  };

  void WorkerLoop();
  ServeBatchResponse Process(const ServeBatch& batch, Worker* worker);
  /// Per-query terminal accounting plus exactly one sink invocation.
  void Emit(ServeBatchResponse response);

  SnapshotHolder* const snapshots_;
  const ServerOptions options_;
  const ResponseSink sink_;
  /// Shared by all workers; internally sharded. Null when disabled.
  // tl-analyze: allow(guard-coverage) -- pointer set in the constructor and
  // immutable afterwards; the cache itself locks per shard
  std::unique_ptr<EstimateCache> cache_;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<ServeBatch> queue_ TL_GUARDED_BY(mu_);
  /// Queries across all queued lines; the admission-capacity unit.
  size_t queued_queries_ TL_GUARDED_BY(mu_) = 0;
  bool stopping_ TL_GUARDED_BY(mu_) = false;

  std::mutex sink_mu_;  // serializes sink invocations

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> degraded_{0};

  // tl-analyze: allow(guard-coverage) -- filled by the constructor, joined
  // by Shutdown; both are single-threaded lifecycle phases
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_SERVER_H_
