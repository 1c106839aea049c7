#include "serve/transport.h"

#include <cerrno>
#include <chrono>
#include <unistd.h>
#include <utility>

#include "obs/metrics.h"
#include "serve/admin.h"
#include "serve/serve_metrics.h"
#include "serve/slow_log.h"
#include "util/json.h"

namespace treelattice {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

bool IsResetErrno(int error) {
  return error == ECONNRESET || error == EPIPE || error == ETIMEDOUT;
}

/// Longest an admin connection may sit idle (request not arrived, or
/// response unread). Admin exchanges are one round trip; anything parked
/// this long is a stuck scraper.
constexpr double kAdminIdleMillis = 10000.0;

/// Largest admin request head we will buffer before answering 400.
constexpr size_t kAdminMaxHeadBytes = 16384;

/// Pending connections the kernel queues on the serving listener.
constexpr int kListenBacklog = 128;

/// Admin connections beyond this are refused at accept.
constexpr size_t kMaxAdminConnections = 32;

}  // namespace

Transport::Transport(SnapshotHolder* snapshots, ServerOptions server_options,
                     Options options, ControlHandler control)
    : snapshots_(snapshots),
      options_(std::move(options)),
      lines_(options_.max_frame_bytes, server_options.queue_capacity,
             [this, control = std::move(control)](std::string_view line) {
               if (line == "#stats") return StatsJsonLine();
               return control != nullptr ? control(line) : std::string();
             }),
      poller_(options_.force_poll),
      io_(options_.faults) {
  started_ = Clock::now();
  // The server's sink runs on worker threads: it only moves the response
  // into the completion queue and nudges the loop — sockets stay owned by
  // the loop thread. Every line routes by its process-unique request id.
  server_ = std::make_unique<Server>(
      snapshots, std::move(server_options),
      [this](ServeBatchResponse response) {
        bool was_empty;
        {
          std::lock_guard<std::mutex> lock(completion_mu_);
          was_empty = completions_.empty();
          completions_.push_back(std::move(response));
        }
        if (was_empty) wake_.Wake();
      });
}

Transport::~Transport() {
  // Run() already tore everything down in the normal lifecycle; this
  // covers construction-then-destruction without Run (e.g. Listen failed).
  for (auto& [fd, conn] : conns_) {
    conn->cancel->Cancel();
    close(fd);
  }
  conns_.clear();
  for (auto& [fd, conn] : admin_conns_) close(fd);
  admin_conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (admin_listen_fd_ >= 0) close(admin_listen_fd_);
  server_->Shutdown();
}

Result<uint16_t> Transport::Listen() {
  if (listen_fd_ >= 0) return port_;
  Result<int> fd = ListenTcp(options_.host, options_.port, kListenBacklog);
  if (!fd.ok()) return fd.status();
  Result<uint16_t> port = BoundPort(*fd);
  if (!port.ok()) {
    close(*fd);
    return port.status();
  }
  listen_fd_ = *fd;
  port_ = *port;
  if (options_.admin_enabled && admin_listen_fd_ < 0) {
    Result<int> admin_fd =
        ListenTcp(options_.admin_host, options_.admin_port, 16);
    if (!admin_fd.ok()) return admin_fd.status();
    Result<uint16_t> admin_port = BoundPort(*admin_fd);
    if (!admin_port.ok()) {
      close(*admin_fd);
      return admin_port.status();
    }
    admin_listen_fd_ = *admin_fd;
    admin_port_ = *admin_port;
  }
  return port_;
}

void Transport::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.Wake();
}

Transport::Stats Transport::GetStats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.frames_oversized = frames_oversized_.load(std::memory_order_relaxed);
  stats.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  stats.responses_delivered =
      responses_delivered_.load(std::memory_order_relaxed);
  stats.responses_orphaned =
      responses_orphaned_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.idle_timeouts = idle_timeouts_.load(std::memory_order_relaxed);
  stats.request_timeouts = request_timeouts_.load(std::memory_order_relaxed);
  stats.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  stats.resets = resets_.load(std::memory_order_relaxed);
  stats.poller_errors = poller_errors_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.interest_changes = interest_changes_.load(std::memory_order_relaxed);
  stats.injected_faults = io_.injected_faults();
  stats.drain_micros = drain_micros_.load(std::memory_order_relaxed);
  return stats;
}

int Transport::WaitTimeoutMillis() const {
  // The sweep granularity bounds how late a timeout can fire; a quarter of
  // the tightest configured timeout keeps that error small without waking
  // a quiet server aggressively.
  double tightest = 500.0;
  if (options_.idle_timeout_millis > 0.0) {
    tightest = std::min(tightest, options_.idle_timeout_millis / 4.0);
  }
  if (options_.request_timeout_millis > 0.0) {
    tightest = std::min(tightest, options_.request_timeout_millis / 4.0);
  }
  if (draining_) tightest = std::min(tightest, 20.0);
  return tightest < 1.0 ? 1 : static_cast<int>(tightest);
}

Status Transport::Run(const volatile std::sig_atomic_t* stop_flag) {
  if (listen_fd_ < 0) {
    Result<uint16_t> port = Listen();
    if (!port.ok()) return port.status();
  }
  if (!wake_.ok()) return Status::Internal("transport wake pipe failed");
  TL_RETURN_IF_ERROR(poller_.Add(listen_fd_, true, false));
  TL_RETURN_IF_ERROR(poller_.Add(wake_.read_fd(), true, false));
  if (admin_listen_fd_ >= 0) {
    TL_RETURN_IF_ERROR(poller_.Add(admin_listen_fd_, true, false));
  }

  started_ = Clock::now();
  last_sweep_ = Clock::now();
  std::vector<EventPoller::Event> events;
  Status loop_status = Status::OK();
  for (;;) {
    if (!draining_ && (stop_requested_.load(std::memory_order_acquire) ||
                       (stop_flag != nullptr && *stop_flag != 0))) {
      BeginDrain();
    }
    if (draining_) {
      if (conns_.empty()) break;
      const double elapsed = MillisSince(drain_started_, Clock::now());
      const double soft = options_.drain_deadline_millis;
      if (!drain_cancelled_ && elapsed >= soft) {
        // Soft deadline: whatever has not finished is cancelled; workers
        // trip their governors and the error responses flush normally.
        for (auto& [fd, conn] : conns_) conn->cancel->Cancel();
        drain_cancelled_ = true;
      }
      if (elapsed >= 2.0 * soft) {
        // Hard deadline: stop waiting for unflushable peers.
        break;
      }
    }

    Status s = poller_.Wait(WaitTimeoutMillis(), &events);
    if (!s.ok()) {
      loop_status = s;
      break;
    }
    // Re-check the stop request before dispatching: a shutdown that landed
    // while we were in Wait must be visible to every event in this batch —
    // otherwise an admin probe racing the wake could still read "ready",
    // and a serving accept could slip in after the operator said stop.
    if (!draining_ && (stop_requested_.load(std::memory_order_acquire) ||
                       (stop_flag != nullptr && *stop_flag != 0))) {
      BeginDrain();
    }
    // Loop health: how many fds fired, and how long this batch keeps the
    // loop away from its next Wait (recorded at the bottom).
    const Clock::time_point dispatch_started = Clock::now();
    for (const EventPoller::Event& event : events) {
      if (event.fd == wake_.read_fd()) {
        wake_.Drain();
        continue;
      }
      if (event.fd == listen_fd_) {
        if (!draining_) AcceptNew();
        continue;
      }
      if (event.fd == admin_listen_fd_) {
        // The admin plane accepts during drain: /healthz reports it.
        AcceptAdmin();
        continue;
      }
      if (auto admin_it = admin_conns_.find(event.fd);
          admin_it != admin_conns_.end()) {
        AdminConn* admin_conn = admin_it->second.get();
        if (event.error) {
          CloseAdminConn(admin_conn);
          continue;
        }
        if (event.writable) {
          FlushAdmin(admin_conn);
          admin_it = admin_conns_.find(event.fd);
          if (admin_it == admin_conns_.end()) continue;
          admin_conn = admin_it->second.get();
        }
        if (event.readable) ReadAdmin(admin_conn);
        continue;
      }
      auto it = conns_.find(event.fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      if (event.error) {
        // EPOLLERR/EPOLLHUP: the peer reset (or the socket died). A clean
        // half-close arrives as readable-EOF instead, never here.
        resets_.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::Get().resets->Increment();
        CloseConn(conn, /*abortive=*/true);
        continue;
      }
      if (event.writable) {
        FlushConn(conn);
        it = conns_.find(event.fd);
        if (it == conns_.end()) continue;
        conn = it->second.get();
      }
      if (event.readable) ReadConn(conn);
    }
    DrainCompletions();

    const Clock::time_point now = Clock::now();
    if (!events.empty()) {
      NetMetrics& metrics = NetMetrics::Get();
      metrics.dispatch_batch->Record(events.size());
      metrics.loop_lag_micros->Record(static_cast<uint64_t>(
          MillisSince(dispatch_started, now) * 1000.0));
    }
    if (MillisSince(last_sweep_, now) >= WaitTimeoutMillis()) {
      SweepTimeouts();
      last_sweep_ = now;
    }
  }

  // Loop exited: account the drain, release every socket, and only then
  // stop the workers — Server::Shutdown answers everything still queued,
  // so the final completion sweep can account each one as orphaned.
  const Clock::time_point drain_end = Clock::now();
  for (auto& [fd, conn] : conns_) {
    conn->cancel->Cancel();
    FinalizeUnflushed(conn.get());
    RemoveFromPoller(fd);
    close(fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
    NetMetrics::Get().active->Add(-1);
  }
  conns_.clear();
  conn_fd_by_id_.clear();
  for (auto& [fd, conn] : admin_conns_) {
    RemoveFromPoller(fd);
    close(fd);
    AdminMetrics::Get().active->Add(-1);
  }
  admin_conns_.clear();
  if (listen_fd_ >= 0) {
    RemoveFromPoller(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (admin_listen_fd_ >= 0) {
    RemoveFromPoller(admin_listen_fd_);
    close(admin_listen_fd_);
    admin_listen_fd_ = -1;
  }
  // tl-analyze: allow(loop-blocking) -- drain path: the event loop has
  // exited; joining the workers here is the whole point of the drain
  server_->Shutdown();
  DrainCompletions();
  RemoveFromPoller(wake_.read_fd());

  if (draining_) {
    const double micros =
        MillisSince(drain_started_, drain_end) * 1000.0;
    drain_micros_.store(micros, std::memory_order_relaxed);
    NetMetrics::Get().drain_micros->Set(static_cast<int64_t>(micros));
  }
  NetMetrics::Get().injected_faults->Increment(io_.injected_faults() -
                                               metered_faults_);
  metered_faults_ = io_.injected_faults();
  return loop_status;
}

void Transport::BeginDrain() {
  draining_ = true;
  drain_started_ = Clock::now();
  drain_cancelled_ = false;
  if (listen_fd_ >= 0) {
    RemoveFromPoller(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading everywhere; close connections with nothing left to say.
  // (Bytes already buffered but not yet newline-terminated are abandoned —
  // the peer never finished asking.)
  std::vector<int> idle_fds;
  for (auto& [fd, conn] : conns_) {
    UpdateInterest(conn.get());
    if (conn->idle()) idle_fds.push_back(fd);
  }
  for (int fd : idle_fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) CloseConn(it->second.get(), /*abortive=*/false);
  }
}

void Transport::AcceptNew() {
  NetMetrics& metrics = NetMetrics::Get();
  for (;;) {
    NetIoResult accepted = io_.Accept(listen_fd_);
    if (accepted.kind == NetIoResult::Kind::kWouldBlock) return;
    if (accepted.kind != NetIoResult::Kind::kOk) return;  // listener hiccup
    const int fd = accepted.fd;
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Turn-away: the one write this connection gets. Best effort — a
      // flooder that cannot even take one line is simply closed.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected->Increment();
      ServeResponse response;
      response.ok = false;
      response.error_code =
          std::string(StatusCodeToString(StatusCode::kResourceExhausted));
      response.error_message = "connection limit reached; retry later";
      std::string line = response.ToJsonLine();
      line.push_back('\n');
      WriteSocket(fd, line);
      close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    metrics.accepted->Increment();
    metrics.active->Add(1);
    const uint64_t id = ++next_conn_id_;
    auto conn = std::make_unique<Conn>(id, fd, options_.max_frame_bytes);
    conn->last_activity = Clock::now();
    if (!poller_.Add(fd, true, false).ok()) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      metrics.active->Add(-1);
      close(fd);
      continue;
    }
    conn->want_read = true;
    conn->want_write = false;
    Conn* raw = conn.get();
    conn_fd_by_id_[id] = fd;
    conns_[fd] = std::move(conn);
    // The client may have pipelined its whole burst before we accepted.
    ReadConn(raw);
  }
}

void Transport::ReadConn(Conn* conn) {
  NetMetrics& metrics = NetMetrics::Get();
  char buf[4096];
  std::vector<NdjsonFramer::Event> events;
  // Bounded rounds per readiness event so one firehose connection cannot
  // starve the rest of the loop (level-triggered: the rest arrives next
  // iteration).
  for (int round = 0; round < 16; ++round) {
    if (conn->state != Conn::State::kOpen || conn->paused || draining_) break;
    NetIoResult got = io_.Read(conn->fd, buf, sizeof(buf));
    if (got.kind == NetIoResult::Kind::kWouldBlock) break;
    if (got.kind == NetIoResult::Kind::kEof) {
      // Orderly half-close: the peer finished sending. Everything already
      // framed still gets answered and flushed before we close.
      conn->state = Conn::State::kHalfClosed;
      if (conn->idle()) {
        CloseConn(conn, /*abortive=*/false);
        return;
      }
      break;
    }
    if (got.kind == NetIoResult::Kind::kError) {
      if (IsResetErrno(got.error)) {
        resets_.fetch_add(1, std::memory_order_relaxed);
        metrics.resets->Increment();
      }
      CloseConn(conn, /*abortive=*/true);
      return;
    }
    bytes_in_.fetch_add(got.bytes, std::memory_order_relaxed);
    metrics.bytes_in->Increment(got.bytes);
    conn->last_activity = Clock::now();
    const bool was_mid_frame = conn->framer.mid_frame();
    events.clear();
    conn->framer.Feed(std::string_view(buf, got.bytes), &events);
    for (const NdjsonFramer::Event& event : events) {
      HandleFrame(conn, event);
    }
    if (conn->framer.mid_frame() && (!was_mid_frame || !events.empty())) {
      // A fresh partial frame started (or progress was made): restart the
      // slowloris clock.
      conn->frame_started = conn->last_activity;
    }
  }
  UpdateInterest(conn);
}

void Transport::HandleFrame(Conn* conn, const NdjsonFramer::Event& event) {
  NetMetrics& metrics = NetMetrics::Get();
  if (event.kind == NdjsonFramer::EventKind::kOversized) {
    // The framer is already discarding through the frame's terminating
    // newline; the line protocol fails the request, the connection lives.
    frames_oversized_.fetch_add(1, std::memory_order_relaxed);
    metrics.frames_oversized->Increment();
  } else {
    frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.frames->Increment();
  }
  // The request id doubles as the route of the answer back to `conn`.
  ServeBatch batch;
  std::string answer;
  if (!lines_.Step(event, &conn->next_client_id, &next_internal_id_, &batch,
                   &answer)) {
    EnqueueLine(conn, answer);
    return;
  }
  batch.cancel = conn->cancel;
  // Conservation is per query: the route records the line's query count
  // and DrainCompletions accounts every one.
  const uint32_t queries = static_cast<uint32_t>(batch.items.size());
  routes_[batch.trace.req_id] = Route{conn->id, queries};
  ++conn->in_flight;
  requests_admitted_.fetch_add(queries, std::memory_order_relaxed);
  // A full admission queue sheds synchronously: the sink fires before
  // Submit returns and the completion path below answers it like any
  // other response — exactly one response per admitted line, always.
  server_->Submit(std::move(batch));
}

void Transport::EnqueueLine(Conn* conn, std::string_view line) {
  conn->out.append(line);
  EndLine(conn);
}

void Transport::EndLine(Conn* conn) {
  conn->out.push_back('\n');
  if (!conn->flush_due) {
    conn->flush_due = true;
    flush_due_fds_.push_back(conn->fd);
  }
  if (!conn->paused &&
      conn->pending_out() > options_.write_high_water) {
    // Backpressure: stop reading until the peer drains its responses.
    // Its further pipelined requests wait in kernel buffers, not here.
    conn->paused = true;
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::Get().backpressure_stalls->Increment();
  }
}

void Transport::FlushConn(Conn* conn) {
  while (conn->pending_out() > 0) {
    NetIoResult wrote = WriteSocket(
        conn->fd, std::string_view(conn->out).substr(conn->out_offset));
    if (wrote.kind == NetIoResult::Kind::kWouldBlock) break;
    if (!wrote.ok()) {
      // EPIPE/ECONNRESET on write: nobody is listening any more; finishing
      // the in-flight estimates would only burn workers.
      if (IsResetErrno(wrote.error)) {
        resets_.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::Get().resets->Increment();
      }
      CloseConn(conn, /*abortive=*/true);
      return;
    }
    conn->out_offset += wrote.bytes;
    conn->total_flushed += wrote.bytes;
    conn->last_activity = Clock::now();
  }
  // Bytes left means the kernel refused them; only then does the poller
  // need to report the socket writable.
  conn->write_blocked = conn->pending_out() > 0;
  FinalizeFlushed(conn);
  if (conn->pending_out() == 0) {
    conn->out.clear();
    conn->out_offset = 0;
  }
  // Resume reading below the low-water mark, a quarter of the high one, or
  // once everything has left: with a high-water mark under 4 bytes the low
  // one is 0, which no backlog is below.
  if (conn->paused && (conn->pending_out() < options_.write_high_water / 4 ||
                       conn->pending_out() == 0)) {
    conn->paused = false;
  }
  if (conn->idle() &&
      (conn->state == Conn::State::kHalfClosed || draining_)) {
    CloseConn(conn, /*abortive=*/false);
    return;
  }
  UpdateInterest(conn);
}

void Transport::UpdateInterest(Conn* conn) {
  const bool want_read =
      conn->state == Conn::State::kOpen && !conn->paused && !draining_;
  const bool want_write = conn->write_blocked;
  if (want_read == conn->want_read && want_write == conn->want_write) return;
  conn->want_read = want_read;
  conn->want_write = want_write;
  interest_changes_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::Get().interest_changes->Increment();
  Status modified = poller_.Modify(conn->fd, want_read, want_write);
  if (!modified.ok()) {
    // The kernel's view of this fd is now stale, so the loop may never see
    // it ready again. Count the error (normally zero; see #stats) and let
    // the idle/slowloris sweep reap the connection: a poller failure
    // degrades to a timeout instead of a silent forever-hang. Closing here
    // would invalidate the conns_ iterator of BeginDrain's caller.
    CountPollerError();
  }
}

NetIoResult Transport::WriteSocket(int fd, std::string_view data) {
  NetMetrics& metrics = NetMetrics::Get();
  writes_.fetch_add(1, std::memory_order_relaxed);
  metrics.writes->Increment();
  NetIoResult wrote = io_.Write(fd, data.data(), data.size());
  if (wrote.ok()) {
    bytes_out_.fetch_add(wrote.bytes, std::memory_order_relaxed);
    metrics.bytes_out->Increment(wrote.bytes);
  }
  return wrote;
}

void Transport::RemoveFromPoller(int fd) {
  Status removed = poller_.Remove(fd);
  // Interest-map bookkeeping is erased even when the kernel-side
  // deregistration errors, and every caller closes the fd next, which
  // completes the epoll detach either way. Still counted: an unexpected
  // epoll_ctl failure should be visible, not silent.
  if (!removed.ok()) CountPollerError();
}

void Transport::CountPollerError() {
  poller_errors_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::Get().poller_errors->Increment();
}

void Transport::CloseConn(Conn* conn, bool abortive) {
  if (abortive) {
    // Cancel in-flight work: the governor trips on its next charge and the
    // response (kCancelled) comes back to be accounted as orphaned.
    conn->cancel->Cancel();
  }
  // Lines still buffered never reach the wire; their traces end at
  // "serialized" and are accounted now.
  FinalizeUnflushed(conn);
  RemoveFromPoller(conn->fd);
  close(conn->fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  NetMetrics::Get().active->Add(-1);
  conn_fd_by_id_.erase(conn->id);
  conns_.erase(conn->fd);  // destroys *conn — must be last
}

void Transport::DrainCompletions() {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    drained_.swap(completions_);
  }
  NetMetrics& metrics = NetMetrics::Get();
  for (const ServeBatchResponse& response : drained_) {
    auto route_it = routes_.find(response.trace.req_id);
    if (route_it == routes_.end()) continue;  // should not happen
    const Route route = route_it->second;
    routes_.erase(route_it);
    auto fd_it = conn_fd_by_id_.find(route.conn_id);
    if (fd_it == conn_fd_by_id_.end()) {
      // The connection died before its answer was ready. Not silent: the
      // work was cancelled at close and the drop is counted here — and the
      // trace finalizes with its last real stamp (never serialized).
      // Conservation is per-query: a dead array line orphans every query
      // it carried.
      responses_orphaned_.fetch_add(route.queries, std::memory_order_relaxed);
      metrics.responses_orphaned->Increment(route.queries);
      FinalizeRequestTrace(response.trace, OutcomeOf(response),
                           options_.slow_log);
      continue;
    }
    Conn* conn = conns_.at(fd_it->second).get();
    --conn->in_flight;
    responses_delivered_.fetch_add(route.queries, std::memory_order_relaxed);
    RequestTrace trace = response.trace;
    response.AppendJsonLine(&conn->out);
    EndLine(conn);
    trace.StampSerialized();
    if (trace.active) {
      // The flush stamp waits for the kernel to take the line's last byte;
      // the marker anchors to the output stream's lifetime byte position.
      Conn::PendingFinalize marker;
      marker.bytes_end = conn->total_enqueued();
      marker.trace = trace;
      marker.outcome = OutcomeOf(response);
      conn->pending_finalize.push_back(std::move(marker));
    }
  }
  drained_.clear();
  // One write per connection per wake: the lines rendered above and those
  // the dispatch enqueued leave together, and half-closed or draining
  // connections that are done close here.
  for (size_t i = 0; i < flush_due_fds_.size(); ++i) {
    auto it = conns_.find(flush_due_fds_[i]);
    if (it == conns_.end() || !it->second->flush_due) continue;
    Conn* conn = it->second.get();
    conn->flush_due = false;
    FlushConn(conn);
  }
  flush_due_fds_.clear();
}

void Transport::FinalizeFlushed(Conn* conn) {
  while (!conn->pending_finalize.empty() &&
         conn->pending_finalize.front().bytes_end <= conn->total_flushed) {
    Conn::PendingFinalize marker = std::move(conn->pending_finalize.front());
    conn->pending_finalize.pop_front();
    marker.trace.StampFlushed();
    FinalizeRequestTrace(marker.trace, marker.outcome, options_.slow_log);
  }
}

void Transport::FinalizeUnflushed(Conn* conn) {
  for (Conn::PendingFinalize& marker : conn->pending_finalize) {
    FinalizeRequestTrace(marker.trace, marker.outcome, options_.slow_log);
  }
  conn->pending_finalize.clear();
}

void Transport::SweepTimeouts() {
  const Clock::time_point now = Clock::now();
  NetMetrics& metrics = NetMetrics::Get();
  std::vector<int> victims_idle;
  std::vector<int> victims_slow;
  for (auto& [fd, conn] : conns_) {
    if (options_.request_timeout_millis > 0.0 && conn->framer.mid_frame() &&
        MillisSince(conn->frame_started, now) >
            options_.request_timeout_millis) {
      victims_slow.push_back(fd);
      continue;
    }
    if (options_.idle_timeout_millis > 0.0 && conn->in_flight == 0 &&
        MillisSince(conn->last_activity, now) >
            options_.idle_timeout_millis) {
      // Covers both the silent connection and the one whose responses
      // cannot be delivered (peer stopped reading): neither made progress.
      victims_idle.push_back(fd);
    }
  }
  for (int fd : victims_slow) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    request_timeouts_.fetch_add(1, std::memory_order_relaxed);
    metrics.request_timeouts->Increment();
    // Best-effort parting error, then the slowloris is gone.
    EnqueueLine(conn, ErrorLine(++conn->next_client_id, ++next_internal_id_,
                                "", Status::DeadlineExceeded(
                                        "request frame not completed in time")));
    WriteSocket(conn->fd,
                std::string_view(conn->out).substr(conn->out_offset));
    CloseConn(conn, /*abortive=*/true);
  }
  for (int fd : victims_idle) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
    metrics.idle_timeouts->Increment();
    CloseConn(it->second.get(), /*abortive=*/false);
  }
  // Admin connections are one short exchange; sweep stragglers.
  std::vector<int> admin_victims;
  for (auto& [fd, conn] : admin_conns_) {
    if (MillisSince(conn->last_activity, now) > kAdminIdleMillis) {
      admin_victims.push_back(fd);
    }
  }
  for (int fd : admin_victims) {
    auto it = admin_conns_.find(fd);
    if (it != admin_conns_.end()) CloseAdminConn(it->second.get());
  }
}

StatusSnapshot Transport::BuildStatus() const {
  StatusSnapshot status;
  status.server = server_->GetStats();
  status.queue_capacity = server_->options().queue_capacity;
  status.workers = server_->options().workers;
  status.snapshot_version = snapshots_->version();
  if (std::shared_ptr<const SummarySnapshot> snap = snapshots_->Get()) {
    status.snapshot_salvaged = snap->salvaged;
  }
  status.draining = draining_;
  status.uptime_seconds = MillisSince(started_, Clock::now()) / 1000.0;
  status.has_net = true;
  status.net = GetStats();
  if (options_.slow_log != nullptr) {
    status.slow_queries = options_.slow_log->total_recorded();
    status.slow_threshold_millis = options_.slow_log->options().threshold_millis;
  }
  return status;
}

std::string Transport::StatsJsonLine() const {
  // One snapshot path for every surface: '#stats' here, /statusz and
  // /healthz in the admin plane — the JSON can never drift apart.
  return introspect::StatsJsonLine(BuildStatus());
}

void Transport::AcceptAdmin() {
  AdminMetrics& metrics = AdminMetrics::Get();
  for (;;) {
    NetIoResult accepted = io_.Accept(admin_listen_fd_);
    if (accepted.kind != NetIoResult::Kind::kOk) return;
    const int fd = accepted.fd;
    if (admin_conns_.size() >= kMaxAdminConnections) {
      close(fd);  // no protocol courtesy: the admin plane is best-effort
      continue;
    }
    auto conn = std::make_unique<AdminConn>(fd);
    conn->last_activity = Clock::now();
    if (!poller_.Add(fd, true, false).ok()) {
      close(fd);
      continue;
    }
    metrics.active->Add(1);
    AdminConn* raw = conn.get();
    admin_conns_[fd] = std::move(conn);
    // The scraper may have sent its whole request already.
    ReadAdmin(raw);
  }
}

void Transport::ReadAdmin(AdminConn* conn) {
  char buf[4096];
  while (!conn->responding) {
    NetIoResult got = io_.Read(conn->fd, buf, sizeof(buf));
    if (got.kind == NetIoResult::Kind::kWouldBlock) return;
    if (got.kind != NetIoResult::Kind::kOk) {
      // EOF or error before a full request head: nothing to answer.
      CloseAdminConn(conn);
      return;
    }
    conn->in.append(buf, got.bytes);
    conn->last_activity = Clock::now();
    Result<std::optional<AdminRequest>> head =
        ParseAdminRequestHead(&conn->in, kAdminMaxHeadBytes);
    if (!head.ok()) {
      AdminResponse bad;
      bad.status = 400;
      bad.content_type = "text/plain; charset=utf-8";
      bad.body = head.status().message() + "\n";
      AdminMetrics::Get().responses_error->Increment();
      conn->out = RenderHttpResponse(bad);
      conn->responding = true;
      break;
    }
    if (!head->has_value()) continue;  // head incomplete — keep reading
    AdminHooks hooks;
    hooks.status = [this] { return BuildStatus(); };
    hooks.metrics_text = [] {
      return obs::MetricsRegistry::Default()->ToPrometheusText();
    };
    hooks.slow_log = options_.slow_log;
    conn->out = RenderHttpResponse(HandleAdminRequest(**head, hooks));
    conn->responding = true;
    break;
  }
  FlushAdmin(conn);
}

void Transport::FlushAdmin(AdminConn* conn) {
  while (conn->pending_out() > 0) {
    NetIoResult wrote = io_.Write(conn->fd, conn->out.data() + conn->out_offset,
                                  conn->pending_out());
    if (wrote.kind == NetIoResult::Kind::kWouldBlock) {
      Status modified = poller_.Modify(conn->fd, false, true);
      if (!modified.ok()) {
        // Write interest could not be registered: the response would never
        // flush. Admin exchanges are one-shot, so drop the connection —
        // the scraper retries — rather than leave it wedged.
        CountPollerError();
        CloseAdminConn(conn);
      }
      return;
    }
    if (!wrote.ok()) {
      CloseAdminConn(conn);
      return;
    }
    conn->out_offset += wrote.bytes;
    conn->last_activity = Clock::now();
  }
  // Response fully on the wire (or nothing to say yet): one exchange per
  // connection, so a finished response closes it.
  if (conn->responding) CloseAdminConn(conn);
}

void Transport::CloseAdminConn(AdminConn* conn) {
  RemoveFromPoller(conn->fd);
  close(conn->fd);
  AdminMetrics::Get().active->Add(-1);
  admin_conns_.erase(conn->fd);  // destroys *conn — must be last
}

}  // namespace serve
}  // namespace treelattice
