#ifndef TREELATTICE_SERVE_SERVE_METRICS_H_
#define TREELATTICE_SERVE_SERVE_METRICS_H_

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace treelattice {
namespace serve {

/// Serving telemetry (see obs/metric_names.h for the registry):
///   serve.requests          requests admitted to the queue
///   serve.responses_ok      successful estimates returned
///   serve.responses_error   error responses (parse, budget, internal)
///   serve.shed              requests rejected by a full admission queue
///   serve.queue_depth_peak  (gauge) high-water mark of the queue
///   serve.latency_micros    (histogram) submit-to-response latency
///   serve.reloads           successful summary hot-swaps
///   serve.reload_failures   reloads that kept the previous snapshot
///   serve.snapshot_version  (gauge) version of the serving snapshot
///   serve.queue_depth       (gauge) admission-queue depth right now
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* responses_ok;
  obs::Counter* responses_error;
  obs::Counter* shed;
  obs::Gauge* queue_depth_peak;
  obs::Histogram* latency_micros;
  obs::Counter* reloads;
  obs::Counter* reload_failures;
  obs::Gauge* snapshot_version;
  obs::Gauge* queue_depth;

  static ServeMetrics& Get() {
    static ServeMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return ServeMetrics{registry->counter(names::kServeRequests),
                          registry->counter(names::kServeResponsesOk),
                          registry->counter(names::kServeResponsesError),
                          registry->counter(names::kServeShed),
                          registry->gauge(names::kServeQueueDepthPeak),
                          registry->histogram(names::kServeLatencyMicros),
                          registry->counter(names::kServeReloads),
                          registry->counter(names::kServeReloadFailures),
                          registry->gauge(names::kServeSnapshotVersion),
                          registry->gauge(names::kServeQueueDepth)};
    }();
    return m;
  }
};

/// Batch-envelope telemetry (serve/server.cc, DESIGN.md §14):
///   serve.batch.lines         JSON array request lines admitted
///   serve.batch.queries       queries carried inside batch lines
///   serve.batch.dup_queries   queries answered by an identical twig
///                             earlier in the same batch (within-batch
///                             dedup before cache/estimator dispatch)
///   serve.batch.cache_hits    distinct batch queries answered from the
///                             estimate cache's batch hit-filter
///   serve.batch.size          (histogram) queries per batch line
///   serve.batch.shed_queries  queries shed because a whole batch line
///                             did not fit the admission queue
struct BatchMetrics {
  obs::Counter* lines;
  obs::Counter* queries;
  obs::Counter* dup_queries;
  obs::Counter* cache_hits;
  obs::Histogram* size;
  obs::Counter* shed_queries;

  static BatchMetrics& Get() {
    static BatchMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return BatchMetrics{registry->counter(names::kServeBatchLines),
                          registry->counter(names::kServeBatchQueries),
                          registry->counter(names::kServeBatchDupQueries),
                          registry->counter(names::kServeBatchCacheHits),
                          registry->histogram(names::kServeBatchSize),
                          registry->counter(names::kServeBatchShedQueries)};
    }();
    return m;
  }
};

/// Per-request stage-timeline telemetry (serve/request_trace.cc): one
/// histogram per adjacent pair of RequestTrace stamps, plus the sampled
/// slow-query tally. See DESIGN.md §12 for the stage taxonomy.
///   serve.stage.admit_micros      framed -> admitted (parse + submit)
///   serve.stage.queue_wait_micros admitted -> dequeued (queue time)
///   serve.stage.estimate_micros   dequeued -> estimated (worker time)
///   serve.stage.serialize_micros  estimated -> serialized (JSON render)
///   serve.stage.flush_micros      serialized -> flushed (socket write)
///   serve.stage.total_micros      framed -> last stamp
///   serve.slow_queries            requests recorded in the slow-query log
struct StageMetrics {
  obs::Histogram* admit_micros;
  obs::Histogram* queue_wait_micros;
  obs::Histogram* estimate_micros;
  obs::Histogram* serialize_micros;
  obs::Histogram* flush_micros;
  obs::Histogram* total_micros;
  obs::Counter* slow_queries;

  static StageMetrics& Get() {
    static StageMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return StageMetrics{
          registry->histogram(names::kServeStageAdmitMicros),
          registry->histogram(names::kServeStageQueueWaitMicros),
          registry->histogram(names::kServeStageEstimateMicros),
          registry->histogram(names::kServeStageSerializeMicros),
          registry->histogram(names::kServeStageFlushMicros),
          registry->histogram(names::kServeStageTotalMicros),
          registry->counter(names::kServeSlowQueries)};
    }();
    return m;
  }
};

/// Admin-endpoint telemetry (serve/admin.cc, serve/transport.cc):
///   admin.requests         HTTP requests answered (any status)
///   admin.responses_error  4xx/5xx responses (404, 405, oversized head)
///   admin.active           (gauge) admin connections open right now
///   admin.bytes_out        admin response bytes written
struct AdminMetrics {
  obs::Counter* requests;
  obs::Counter* responses_error;
  obs::Gauge* active;
  obs::Counter* bytes_out;

  static AdminMetrics& Get() {
    static AdminMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return AdminMetrics{registry->counter(names::kAdminRequests),
                          registry->counter(names::kAdminResponsesError),
                          registry->gauge(names::kAdminActive),
                          registry->counter(names::kAdminBytesOut)};
    }();
    return m;
  }
};

/// TCP transport telemetry (serve/transport.cc):
///   serve.net.accepted            connections accepted and served
///   serve.net.rejected            connections turned away at the cap
///   serve.net.active              (gauge) connections open right now
///   serve.net.frames              complete request lines framed
///   serve.net.frames_oversized    frames failed for exceeding the limit
///   serve.net.bytes_in/bytes_out  socket traffic
///   serve.net.idle_timeouts       idle connections closed
///   serve.net.request_timeouts    slowloris (mid-frame) closes
///   serve.net.backpressure_stalls reads paused at the write high-water
///   serve.net.resets              abortive closes (RST/EPIPE/injected)
///   serve.net.responses_orphaned  responses whose connection died first
///   serve.net.injected_faults     synthetic socket faults taken
///   serve.net.drain_micros        (gauge) last graceful-drain duration
///   serve.net.loop_lag_micros     (histogram) event-loop iteration time —
///                                 how long one poll batch kept the loop
///                                 away from its next Wait
///   serve.net.dispatch_batch      (histogram) readiness events per batch
///   serve.net.poller_errors       EventPoller Add/Modify/Remove failures —
///                                 normally zero; a nonzero value means a
///                                 connection's readiness interest went
///                                 stale and the timeout sweep reaped it
///   serve.net.writes              write calls on serving sockets, EAGAIN
///                                 included; at most one per connection
///                                 per loop wake unless the kernel stops
///                                 the write short
///   serve.net.interest_changes    poller re-arms (EventPoller::Modify):
///                                 write interest is asked for only after
///                                 EAGAIN, read interest dropped on pause,
///                                 half-close and drain
struct NetMetrics {
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Gauge* active;
  obs::Counter* frames;
  obs::Counter* frames_oversized;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* idle_timeouts;
  obs::Counter* request_timeouts;
  obs::Counter* backpressure_stalls;
  obs::Counter* resets;
  obs::Counter* responses_orphaned;
  obs::Counter* injected_faults;
  obs::Gauge* drain_micros;
  obs::Histogram* loop_lag_micros;
  obs::Histogram* dispatch_batch;
  obs::Counter* poller_errors;
  obs::Counter* writes;
  obs::Counter* interest_changes;

  static NetMetrics& Get() {
    static NetMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return NetMetrics{registry->counter(names::kNetAccepted),
                        registry->counter(names::kNetRejected),
                        registry->gauge(names::kNetActive),
                        registry->counter(names::kNetFrames),
                        registry->counter(names::kNetFramesOversized),
                        registry->counter(names::kNetBytesIn),
                        registry->counter(names::kNetBytesOut),
                        registry->counter(names::kNetIdleTimeouts),
                        registry->counter(names::kNetRequestTimeouts),
                        registry->counter(names::kNetBackpressureStalls),
                        registry->counter(names::kNetResets),
                        registry->counter(names::kNetResponsesOrphaned),
                        registry->counter(names::kNetInjectedFaults),
                        registry->gauge(names::kNetDrainMicros),
                        registry->histogram(names::kNetLoopLagMicros),
                        registry->histogram(names::kNetDispatchBatch),
                        registry->counter(names::kNetPollerErrors),
                        registry->counter(names::kNetWrites),
                        registry->counter(names::kNetInterestChanges)};
    }();
    return m;
  }
};

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_SERVE_METRICS_H_
