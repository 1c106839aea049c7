#ifndef TREELATTICE_UTIL_DEADLINE_H_
#define TREELATTICE_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "util/status.h"

namespace treelattice {

/// A point in monotonic time after which work should stop. Deadlines are
/// absolute, so passing one down a call chain (estimator -> fallback ->
/// sub-estimate) naturally charges every stage against the same budget.
/// A default-constructed Deadline never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : when_(Clock::time_point::max()) {}

  /// A deadline that never expires.
  static Deadline Infinite() { return Deadline(); }

  /// A deadline `millis` milliseconds from now. Non-positive values expire
  /// immediately; values past the end of the clock's range (about 9.2e12
  /// ms) saturate to Infinite() instead of overflowing into the past.
  static Deadline After(double millis) {
    const Clock::time_point now = Clock::now();
    if (!(millis > 0.0)) return At(now);
    const Clock::duration headroom = Clock::time_point::max() - now;
    const double ticks = std::chrono::duration<double, Clock::period>(
                             std::chrono::duration<double, std::milli>(millis))
                             .count();
    // Compared as doubles first: casting an out-of-range double to the
    // clock's integer ticks is undefined.
    if (ticks >= static_cast<double>(headroom.count())) return Infinite();
    const Clock::duration wait(static_cast<Clock::rep>(ticks));
    return wait >= headroom ? Infinite() : At(now + wait);
  }

  static Deadline At(Clock::time_point when) {
    Deadline d;
    d.when_ = when;
    return d;
  }

  bool is_infinite() const { return when_ == Clock::time_point::max(); }

  bool expired() const { return !is_infinite() && Clock::now() >= when_; }

  /// Milliseconds until expiry: negative once expired, +infinity for an
  /// infinite deadline.
  double remaining_millis() const {
    if (is_infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(when_ - Clock::now())
        .count();
  }

  Clock::time_point when() const { return when_; }

 private:
  Clock::time_point when_;
};

/// Cooperative cancellation flag, shared between a requester (who calls
/// Cancel, from any thread) and a worker (who polls cancelled(), usually
/// via CostGovernor::Charge). Cancellation is one-way and sticky.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Combines a Deadline, an optional CancelToken, and a work-step budget
/// into one cooperative governor that hot loops consult via Charge().
///
/// A "step" is one unit of bounded work — a summary lookup, a
/// decomposition split, a sweep window. Step budgets make resource limits
/// deterministic (tests and replayable traces); the deadline bounds wall
/// time. To keep Charge cheap enough for inner loops, the wall clock is
/// read only every kClockCheckInterval charges; the worst-case deadline
/// overshoot is therefore kClockCheckInterval steps of work, a few
/// microseconds in the estimator loops.
///
/// A governor is single-threaded state (use one per request, not shared);
/// the CancelToken it polls may be set from any thread. Once tripped it
/// stays tripped: every later Charge returns the same error.
class CostGovernor {
 public:
  static constexpr uint64_t kClockCheckInterval = 64;

  /// An unlimited governor: Charge always succeeds (but still counts).
  CostGovernor() = default;

  CostGovernor(Deadline deadline, const CancelToken* cancel,
               uint64_t max_steps)
      : deadline_(deadline), cancel_(cancel), max_steps_(max_steps) {}

  /// Charges `n` steps of work. Returns OK while within budget; otherwise
  /// kCancelled, kResourceExhausted (step budget), or kDeadlineExceeded.
  Status Charge(uint64_t n = 1) {
    if (tripped_) return trip_;
    steps_ += n;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Trip(Status::Cancelled("request cancelled after " +
                                    std::to_string(steps_) + " steps"));
    }
    if (max_steps_ > 0 && steps_ > max_steps_) {
      return Trip(Status::ResourceExhausted(
          "work-step budget of " + std::to_string(max_steps_) +
          " steps exhausted"));
    }
    if (!deadline_.is_infinite()) {
      if (until_clock_check_ <= n) {
        until_clock_check_ = kClockCheckInterval;
        if (deadline_.expired()) {
          return Trip(Status::DeadlineExceeded(
              "deadline expired after " + std::to_string(steps_) + " steps"));
        }
      } else {
        until_clock_check_ -= n;
      }
    }
    return Status::OK();
  }

  /// Total steps charged so far (including the one that tripped).
  uint64_t steps() const { return steps_; }

  /// True once any limit has been hit; Charge keeps failing from then on.
  bool tripped() const { return tripped_; }

 private:
  Status Trip(Status status) {
    tripped_ = true;
    trip_ = status;
    return status;
  }

  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  uint64_t max_steps_ = 0;
  uint64_t steps_ = 0;
  uint64_t until_clock_check_ = 0;  // forces a clock read on first Charge
  bool tripped_ = false;
  Status trip_;
};

}  // namespace treelattice

#endif  // TREELATTICE_UTIL_DEADLINE_H_
