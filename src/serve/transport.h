#ifndef TREELATTICE_SERVE_TRANSPORT_H_
#define TREELATTICE_SERVE_TRANSPORT_H_

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/conn.h"
#include "util/analysis_annotations.h"
#include "serve/introspect.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/event_poller.h"
#include "util/net.h"
#include "util/thread_annotations.h"

namespace treelattice {
namespace serve {

/// The TCP front end of `treelattice serve`: a single-threaded,
/// non-blocking event loop (epoll, poll fallback — util/event_poller.h)
/// that accepts many concurrent connections, frames pipelined NDJSON
/// requests (the same envelope protocol as stdin mode), feeds the Server's
/// bounded admission queue, and routes each response back to the
/// connection that asked — workers never touch a socket, the loop never
/// blocks on one.
///
/// Robustness governance, per connection (DESIGN.md §11):
///   * max-connections cap — over the cap, a connection is accepted only
///     long enough to receive a ResourceExhausted turn-away line.
///   * write backpressure — a connection whose response backlog exceeds
///     `write_high_water` stops being read (its pipelined requests stay in
///     its kernel socket buffer) and resumes below `write_low_water`, so a
///     client that never reads cannot grow server memory without bound.
///   * idle + mid-frame timeouts — a connection with no traffic, or one
///     dribbling a frame byte-by-byte (slowloris), is closed.
///   * max frame size — an overlong line fails that request with a JSON
///     error; the connection and process live on.
///   * half-close vs. abort — peer EOF still gets every buffered request
///     answered and flushed; RST/EPIPE cancels in-flight work through the
///     connection's CancelToken and closes immediately.
///
/// Graceful drain: RequestShutdown() (or the `stop_flag` handed to Run,
/// flipped from a signal handler) closes the acceptor, stops reading,
/// answers and flushes everything in flight, then closes. Requests still
/// unfinished at `drain_deadline_millis` are cancelled; connections that
/// cannot flush by twice the deadline are force-closed. Run returns only
/// when every admitted request has been delivered or accounted orphaned.
///
/// Fault injection: `Options::faults` seeds the NetIo shim (short
/// reads/writes, EAGAIN storms, injected ECONNRESET) the same way
/// FaultInjectingEnv seeds file I/O — the soak tests run the whole
/// transport under these storms and assert exactly-once delivery.
// tl-analyze: allow(guard-coverage) -- single-threaded by design: the loop
// thread owns every field; the only cross-thread state, completions_, is
// TL_GUARDED_BY(completion_mu_), and cross-thread tallies are atomics
class Transport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral (tests, benches)
    int backlog = 128;
    /// Connections served concurrently; above this, accept + turn away.
    int max_connections = 1024;
    /// Longest accepted request line, newline excluded.
    size_t max_frame_bytes = 1 << 20;
    /// Close a connection with no in-flight work and no traffic for this
    /// long. <= 0 disables.
    double idle_timeout_millis = 300000.0;
    /// Close a connection that holds a frame open (bytes buffered, no
    /// newline) for this long — the slowloris defense. <= 0 disables.
    double request_timeout_millis = 30000.0;
    /// Stop reading a connection whose pending output exceeds high water;
    /// resume below low water.
    size_t write_high_water = 1 << 20;
    size_t write_low_water = 1 << 18;
    /// Soft drain budget on shutdown; see class comment.
    double drain_deadline_millis = 5000.0;
    /// Force the poll(2) backend even where epoll is available.
    bool force_poll = false;
    /// Deterministic socket-fault seeding (0 = off).
    NetFaultConfig faults;

    /// Admin plane (DESIGN.md §12): when enabled, a second acceptor on
    /// the same event loop answers GET /metrics, /healthz, /statusz and
    /// /slowz over a minimal HTTP/1.1 subset (serve/admin.h). The admin
    /// listener stays open during drain so /healthz can report it.
    bool admin_enabled = false;
    std::string admin_host = "127.0.0.1";
    uint16_t admin_port = 0;  // 0 = ephemeral
    /// Admin connections beyond this are refused at accept.
    int max_admin_connections = 32;
    /// Slow-query ring fed by request finalization and served by /slowz.
    /// Not owned; may be null (no slow-query logging). Must outlive Run.
    SlowQueryLog* slow_log = nullptr;
  };

  /// Handles control lines ('#'-prefixed) the transport does not answer
  /// itself ("#stats" is built in). Returns the complete JSON response
  /// line (without newline); an empty return produces a generic error
  /// response. Runs on the loop thread — keep it quick.
  using ControlHandler = std::function<std::string(std::string_view line)>;

  /// Constructs the transport and its internal Server (worker pool +
  /// admission queue) over `snapshots`, which must outlive the transport.
  Transport(SnapshotHolder* snapshots, ServerOptions server_options,
            Options options, ControlHandler control = nullptr);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds and listens (the admin listener too, when enabled). Returns
  /// the bound serving port (resolves port 0).
  Result<uint16_t> Listen();
  uint16_t port() const { return port_; }
  /// Bound admin port; 0 when the admin plane is disabled.
  uint16_t admin_port() const { return admin_port_; }

  /// Runs the event loop on the calling thread until a shutdown request
  /// drains it (see class comment). `stop_flag`, when given, is polled
  /// every iteration — the CLI points it at its sig_atomic_t signal flag
  /// (signals interrupt the poller wait, so reaction is immediate).
  TL_EVENT_LOOP Status Run(const volatile std::sig_atomic_t* stop_flag = nullptr);

  /// Thread-safe; nudges Run to begin the graceful drain.
  void RequestShutdown();

  Server::Stats GetServerStats() const { return server_->GetStats(); }

  /// Field docs live on TransportStats (serve/introspect.h) — the struct
  /// is standalone so status rendering needs no transport dependency.
  using Stats = TransportStats;
  Stats GetStats() const;

 private:
  struct Route {
    uint64_t conn_id = 0;
    /// Queries the routed line carries (1 for a scalar line, N for an
    /// array line). Conservation is per-query: delivering or orphaning
    /// the line accounts all of them (DESIGN.md §14).
    uint32_t queries = 1;
  };

  // Event-loop internals; all run on the loop thread.
  void AcceptNew();
  void ReadConn(Conn* conn);
  void FlushConn(Conn* conn);
  void HandleFrame(Conn* conn, NdjsonFramer::Event event);
  void HandleControlLine(Conn* conn, const std::string& line);
  void EnqueueLine(Conn* conn, std::string_view line);
  /// Ends the line just appended to conn->out: adds its newline, marks the
  /// connection for this wake's flush and pauses reading above high water.
  void EndLine(Conn* conn);
  /// `req` is the process-unique request id echoed in the error line; 0
  /// lets the transport assign a fresh one.
  void EnqueueErrorLine(Conn* conn, uint64_t id, uint64_t req,
                        std::string_view query, StatusCode code,
                        std::string_view message);
  /// Re-arms the poller when the connection's interest changed: read while
  /// open, unpaused and not draining; write only while `write_blocked`.
  void UpdateInterest(Conn* conn);
  /// One write on a serving socket, counted in serve.net.writes (EAGAIN
  /// included) and, for the bytes it moved, serve.net.bytes_out.
  NetIoResult WriteSocket(int fd, std::string_view data);
  /// Teardown-path poller deregistration: counts (never propagates) a
  /// failed Remove — the caller closes the fd right after, which finishes
  /// the kernel-side deregistration either way.
  void RemoveFromPoller(int fd);
  /// Tallies one EventPoller failure (serve.net.poller_errors + #stats).
  void CountPollerError();
  void CloseConn(Conn* conn, bool abortive);
  /// Renders every finished response into its connection's buffer, then
  /// flushes each connection with output due once.
  void DrainCompletions();
  void SweepTimeouts();
  void BeginDrain();
  int WaitTimeoutMillis() const;
  std::string StatsJsonLine() const;
  /// Finalizes every response line whose bytes reached the kernel
  /// (flush markers up to conn->total_flushed).
  void FinalizeFlushed(Conn* conn);
  /// Finalizes everything still pending on `conn` without a flush stamp —
  /// the connection is going away before those bytes hit the wire.
  void FinalizeUnflushed(Conn* conn);
  /// The one coherent status view every introspection surface renders
  /// ('#stats', /statusz, /healthz). Loop thread only.
  StatusSnapshot BuildStatus() const;

  // Admin plane (all on the loop thread; serve/admin.h has the protocol).
  void AcceptAdmin();
  void ReadAdmin(AdminConn* conn);
  void FlushAdmin(AdminConn* conn);
  void CloseAdminConn(AdminConn* conn);

  SnapshotHolder* const snapshots_;
  const Options options_;
  const ControlHandler control_;
  std::unique_ptr<Server> server_;

  EventPoller poller_;
  NetIo io_;
  WakePipe wake_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int admin_listen_fd_ = -1;
  uint16_t admin_port_ = 0;
  std::unordered_map<int, std::unique_ptr<AdminConn>> admin_conns_;  // by fd
  /// When Run started — /statusz uptime.
  std::chrono::steady_clock::time_point started_;

  uint64_t next_conn_id_ = 0;
  uint64_t next_internal_id_ = 0;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;       // by fd
  std::unordered_map<uint64_t, int> conn_fd_by_id_;
  std::unordered_map<uint64_t, Route> routes_;  // internal id -> conn
  /// Fds of connections whose flush_due was set since the last flush. A
  /// closed fd, or one reused by a connection without flush_due, is skipped.
  std::vector<int> flush_due_fds_;
  /// Swapped with completions_ each wake, so both keep their capacity.
  std::vector<ServeBatchResponse> drained_;
  std::chrono::steady_clock::time_point last_sweep_;

  // Drain state (loop thread).
  bool draining_ = false;
  bool drain_cancelled_ = false;
  std::chrono::steady_clock::time_point drain_started_;

  std::atomic<bool> stop_requested_{false};
  /// Injected-fault count already flushed to the metrics registry.
  uint64_t metered_faults_ = 0;

  std::mutex completion_mu_;
  std::vector<ServeBatchResponse> completions_ TL_GUARDED_BY(completion_mu_);

  // Counters; loop thread writes, any thread reads via GetStats.
  std::atomic<uint64_t> accepted_{0}, rejected_{0}, active_{0}, frames_{0},
      frames_oversized_{0}, requests_admitted_{0}, responses_delivered_{0},
      responses_orphaned_{0}, bytes_in_{0}, bytes_out_{0}, idle_timeouts_{0},
      request_timeouts_{0}, backpressure_stalls_{0}, resets_{0},
      poller_errors_{0}, writes_{0}, interest_changes_{0};
  std::atomic<double> drain_micros_{0.0};
};

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_TRANSPORT_H_
