#ifndef TREELATTICE_SERVE_CONN_H_
#define TREELATTICE_SERVE_CONN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request_trace.h"
#include "util/deadline.h"

namespace treelattice {
namespace serve {

/// Incremental NDJSON frame extractor for the TCP transport: bytes go in
/// in arbitrary chunks (short reads split frames anywhere, including the
/// middle of a UTF-8 sequence — the framer is byte-oriented and never
/// inspects encoding), complete newline-terminated lines come out. A frame
/// that exceeds `max_frame_bytes` without a newline fails *that frame*
/// only: one kOversized event is emitted when the limit trips, the
/// overlong line's bytes are discarded through its terminating newline,
/// and the next frame parses normally. Embedded NUL and '\r' bytes are
/// data ('\r' immediately before the newline is stripped, telnet-style);
/// empty lines produce no event.
///
/// Byte conservation (fuzz-checked, tests/fuzz/fuzz_framing.cc):
///   consumed() == Σ (emitted line bytes + 1 newline each)
///               + dropped() + pending().
/// dropped() counts oversize discards plus framing overhead that produces
/// no event: stripped '\r's and blank lines.
class NdjsonFramer {
 public:
  explicit NdjsonFramer(size_t max_frame_bytes);

  enum class EventKind {
    kLine,       // one complete frame; `line` excludes the newline
    kOversized,  // frame grew past max_frame_bytes; its bytes are dropped
  };
  struct Event {
    EventKind kind = EventKind::kLine;
    std::string line;
  };

  /// Appends `data` and appends any completed events to `out`.
  void Feed(std::string_view data, std::vector<Event>* out);

  /// Bytes of the current incomplete frame buffered (0 while discarding).
  size_t pending() const { return discarding_ ? 0 : buffer_.size(); }
  /// True when bytes are buffered or an oversized frame is being skipped —
  /// i.e. the peer owes us a newline (the slowloris timer keys off this).
  bool mid_frame() const { return discarding_ || !buffer_.empty(); }
  /// Total bytes ever fed / dropped by oversize discards.
  uint64_t consumed() const { return consumed_; }
  uint64_t dropped() const { return dropped_; }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  bool discarding_ = false;
  uint64_t consumed_ = 0;
  uint64_t dropped_ = 0;
};

/// Per-connection state owned by the transport's event loop. Connections
/// move through a small state machine (DESIGN.md §11):
///
///   kOpen ──peer EOF──▶ kHalfClosed ──buffers+in-flight drained──▶ close
///     │                     │
///     └──RST/write error────┴──▶ close now (in-flight work cancelled)
///
/// kOpen: reading frames, writing responses. kHalfClosed: the peer
/// finished sending (orderly shutdown); everything already received is
/// still answered and flushed — a pipelined client that half-closes after
/// its last request loses nothing. An abortive close (ECONNRESET/EPIPE)
/// instead cancels in-flight work through `cancel`: nobody is listening,
/// so finishing the estimate would only burn a worker.
struct Conn {
  Conn(uint64_t id_in, int fd_in, size_t max_frame_bytes)
      : id(id_in),
        fd(fd_in),
        framer(max_frame_bytes),
        cancel(std::make_shared<CancelToken>()) {}

  enum class State { kOpen, kHalfClosed };

  const uint64_t id;  // monotonic; never reused, unlike the fd
  const int fd;
  State state = State::kOpen;
  NdjsonFramer framer;

  /// Pending output. `out_offset` marks how much of `out` is already
  /// written; compacted when fully flushed.
  std::string out;
  size_t out_offset = 0;
  size_t pending_out() const { return out.size() - out_offset; }

  /// Lifetime byte positions on the output stream — `out` is compacted,
  /// so flush markers (below) anchor to these instead of offsets into it.
  uint64_t total_flushed = 0;
  uint64_t total_enqueued() const { return total_flushed + pending_out(); }

  /// A response line awaiting its socket flush: once `total_flushed`
  /// reaches `bytes_end`, the response's last byte hit the kernel and the
  /// trace can stamp "flushed" and finalize. FIFO by construction (bytes
  /// flush in enqueue order).
  struct PendingFinalize {
    uint64_t bytes_end = 0;  // total_enqueued right after the line
    RequestTrace trace;
    RequestOutcome outcome;
  };
  std::deque<PendingFinalize> pending_finalize;

  /// Readiness interest as last told to the poller.
  bool want_read = true;
  bool want_write = false;
  /// The last flush stopped short: the kernel refused bytes (EAGAIN). Only
  /// then does the connection ask the poller for write readiness.
  bool write_blocked = false;
  /// Output was enqueued since the last flush; the loop flushes every such
  /// connection once per wake.
  bool flush_due = false;
  /// Reading stopped because pending_out() crossed the high-water mark;
  /// reads resume below the low-water mark (write backpressure).
  bool paused = false;

  /// Requests submitted to the Server whose responses have not yet come
  /// back. Shared with every in-flight request of this connection; an
  /// abortive close cancels them all at once.
  uint64_t in_flight = 0;
  std::shared_ptr<CancelToken> cancel;

  /// Per-connection fallback id assignment for bare-query lines (JSON
  /// envelopes may carry their own id), mirroring the stdin protocol.
  uint64_t next_client_id = 0;

  std::chrono::steady_clock::time_point last_activity;
  /// When the current partial frame started growing; meaningful only
  /// while framer.mid_frame() (slowloris timer).
  std::chrono::steady_clock::time_point frame_started;

  bool idle() const { return in_flight == 0 && pending_out() == 0; }
};

/// Per-connection state of the admin plane (serve/admin.h): strictly
/// request → response → close, so the state is just the two buffers. The
/// transport's loop owns these alongside the serving Conns; they share
/// the idle-timeout sweep but none of the framing or routing machinery.
struct AdminConn {
  explicit AdminConn(int fd_in) : fd(fd_in) {}

  const int fd;
  std::string in;   // bytes read so far, until the head parses
  std::string out;  // rendered response being flushed
  size_t out_offset = 0;
  size_t pending_out() const { return out.size() - out_offset; }
  /// Response fully rendered; close once `out` drains.
  bool responding = false;

  std::chrono::steady_clock::time_point last_activity;
};

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_CONN_H_
