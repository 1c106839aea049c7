#ifndef TREELATTICE_SERVE_INTROSPECT_H_
#define TREELATTICE_SERVE_INTROSPECT_H_

#include <cstdint>
#include <string>

#include "serve/server.h"

namespace treelattice {
namespace serve {

class SlowQueryLog;

/// Transport tallies, decoupled from the Transport class so status
/// rendering does not need transport.h (which needs conn.h, admin.h, ...).
/// Transport aliases this as Transport::Stats.
struct TransportStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;        // turned away at the connection cap
  uint64_t active = 0;          // open right now
  uint64_t frames = 0;          // complete request lines parsed
  uint64_t frames_oversized = 0;
  uint64_t requests_admitted = 0;  // submitted to the Server
  uint64_t responses_delivered = 0;
  uint64_t responses_orphaned = 0;  // connection died first
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t idle_timeouts = 0;
  uint64_t request_timeouts = 0;  // slowloris closes
  uint64_t backpressure_stalls = 0;
  uint64_t resets = 0;  // abortive closes (RST/EPIPE/injected)
  uint64_t poller_errors = 0;  // EventPoller failures (normally zero)
  uint64_t writes = 0;  // write calls on serving sockets, EAGAIN included
  uint64_t interest_changes = 0;  // poller re-arms (EventPoller::Modify)
  uint64_t injected_faults = 0;
  double drain_micros = 0.0;  // shutdown-to-loop-exit, once Run returns
};

/// One coherent view of the serving process, assembled in one place and
/// rendered by every introspection surface — the '#stats' control line,
/// GET /statusz, and GET /healthz all read the same snapshot, so the
/// surfaces can never drift apart (DESIGN.md §12).
struct StatusSnapshot {
  Server::Stats server;
  size_t queue_capacity = 0;
  int workers = 0;
  int64_t snapshot_version = 0;  // 0 = no snapshot loaded
  bool snapshot_salvaged = false;
  bool draining = false;
  double uptime_seconds = 0.0;
  /// TCP front end present (false in stdin mode — `net` is then unset).
  bool has_net = false;
  TransportStats net;
  /// Slow-query log tallies; threshold 0 = log absent or disabled.
  uint64_t slow_queries = 0;
  double slow_threshold_millis = 0.0;
};

namespace introspect {

/// The '#stats' response line (no trailing newline): the historical
/// {"stats":{...}} record, now with queue depth, slow-query tallies, and —
/// when a TCP transport is present — the full "net" block.
std::string StatsJsonLine(const StatusSnapshot& status);

/// The GET /statusz body: everything in StatsJsonLine plus uptime,
/// drain state, worker/queue configuration, and build info.
std::string StatuszJson(const StatusSnapshot& status);

/// Readiness verdict for GET /healthz.
struct HealthReport {
  bool ready = false;
  std::string reason;  // "ok" when ready
};

/// Ready iff a snapshot is loaded, the process is not draining, and the
/// admission queue has headroom — the conditions under which a new
/// request would actually be answered rather than shed.
HealthReport EvaluateHealth(const StatusSnapshot& status);

/// The GET /healthz body: {"ok":...,"reason":...}.
std::string HealthzJson(const HealthReport& report);

/// The GET /slowz body: threshold, tallies, and the ring newest-first.
/// `log` may be null (slow logging not configured).
std::string SlowzJson(const SlowQueryLog* log);

}  // namespace introspect

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_INTROSPECT_H_
