#ifndef TREELATTICE_UTIL_TIMER_H_
#define TREELATTICE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace treelattice {

/// Monotonic wall-clock stopwatch used by the experiment harness.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Microseconds since the last Restart or lap, restarting the timer:
  /// consecutive laps cover every stretch once, one clock read each.
  double LapMicros() {
    const Clock::time_point now = Clock::now();
    const double micros =
        std::chrono::duration<double, std::micro>(now - start_).count();
    start_ = now;
    return micros;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace treelattice

#endif  // TREELATTICE_UTIL_TIMER_H_
