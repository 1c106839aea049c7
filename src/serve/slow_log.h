#ifndef TREELATTICE_SERVE_SLOW_LOG_H_
#define TREELATTICE_SERVE_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace treelattice {
namespace serve {

/// A sampled ring of the slowest requests (DESIGN.md §12): every request
/// whose framed-to-flushed total crosses `threshold_millis` is recorded
/// with its full stage timeline and twig shape features; the newest
/// `capacity` entries are kept. Exported via the admin endpoint's /slowz
/// and the #stats record.
///
/// Lock discipline: the fast path (a request under threshold) never takes
/// the mutex — FinalizeRequestTrace checks ShouldRecord() first, which is
/// a plain comparison. Only over-threshold requests (rare by construction)
/// and /slowz snapshots lock.
class SlowQueryLog {
 public:
  struct Options {
    /// Requests slower than this are recorded; <= 0 disables recording.
    double threshold_millis = 250.0;
    /// Ring size: the newest N slow queries are kept. The ring reserves
    /// all N entries up front, so N must not exceed kMaxCapacity.
    size_t capacity = 128;
  };

  static constexpr size_t kMaxCapacity = size_t{1} << 16;

  struct Entry {
    uint64_t req_id = 0;
    std::string query;
    std::string rung;        // empty on error
    std::string error_code;  // empty on success
    bool ok = false;
    bool cached = false;
    bool degraded = false;
    int64_t snapshot_version = 0;
    // Twig shape features: node count, edge depth, max fan-out.
    uint32_t twig_size = 0;
    uint32_t twig_depth = 0;
    uint32_t twig_fanout = 0;
    uint64_t work_steps = 0;
    /// Queries in the request line (0 = single-query line, N = batch).
    uint32_t batch_size = 0;
    /// When the request was framed, micros since the process trace epoch.
    uint64_t framed_micros = 0;
    /// Stage deltas in micros; 0 = stage absent (see RequestTrace).
    uint64_t admit_micros = 0;
    uint64_t queue_wait_micros = 0;
    uint64_t estimate_micros = 0;
    uint64_t serialize_micros = 0;
    uint64_t flush_micros = 0;
    double total_millis = 0.0;
  };

  explicit SlowQueryLog(Options options);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Lock-free threshold check — the common (fast) path.
  bool ShouldRecord(double total_millis) const {
    return options_.threshold_millis > 0.0 &&
           total_millis >= options_.threshold_millis;
  }

  /// Appends `entry`, displacing the oldest once the ring is full. Also
  /// bumps the serve.slow_queries counter.
  void Record(Entry entry);

  /// The current ring contents, newest first.
  std::vector<Entry> Snapshot() const;

  /// Slow queries ever recorded (monotonic; not capped by the ring).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::vector<Entry> ring_ TL_GUARDED_BY(mu_);
  /// Insertion cursor once the ring reached capacity.
  size_t next_ TL_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> total_{0};
};

}  // namespace serve
}  // namespace treelattice

#endif  // TREELATTICE_SERVE_SLOW_LOG_H_
