#ifndef TREELATTICE_OBS_METRICS_H_
#define TREELATTICE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/thread_annotations.h"

namespace treelattice {
namespace obs {

/// Global observability switch. Reads the TREELATTICE_OBS environment
/// variable once on first use: "off", "0", or "false" disable all metric
/// collection (every Increment/Set/Record becomes a cheap early-out branch
/// so one build can be measured with and without telemetry:
/// tools/check_metrics_overhead.py runs perfbench's workloads in off/on
/// pairs). Anything else — including unset — leaves collection on.
bool Enabled();

/// Test hook: overrides the environment-derived switch for this process.
void SetEnabledForTest(bool enabled);

/// A monotonic counter. Increment is wait-free (one relaxed atomic add);
/// safe to call from any thread.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time value (last write wins across threads).
class Gauge {
 public:
  void Set(int64_t value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `value` if it is larger (peak tracking).
  void SetMax(int64_t value);
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A log-bucketed histogram of non-negative integer samples (latencies in
/// micros, sizes in bytes, depths, fan-outs). Bucket 0 holds the value 0;
/// bucket i >= 1 holds [2^(i-1), 2^i). Record is wait-free; snapshots are
/// taken without stopping writers and are only approximately consistent
/// under concurrent recording — fine for reporting.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  void Record(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  ///< 0 when count == 0
    uint64_t max = 0;
    double p50 = 0.0;  ///< bucket-interpolated percentiles
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Snapshot GetSnapshot() const;

  void Reset();

 private:
  static int BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(int index);
  static uint64_t BucketUpperBound(int index);

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// The process-wide metric registry: named counters, gauges, and
/// histograms. Lookup interns the name and returns a stable pointer, so
/// instrumentation sites cache it in a function-local static and pay only
/// the atomic update per event:
///
///   static obs::Counter* hits =
///       obs::MetricsRegistry::Default()->counter(
///           obs::metric_names::kEstimatorSummaryHits);
///   hits->Increment();
///
/// Naming scheme (enforced by tools/tl_lint.py, see DESIGN.md §8):
/// lowercase dot-separated "<subsystem>.<metric>", e.g. "io.bytes_written",
/// "estimator.decomposition_depth", and every name used from src/ must be
/// a constant declared in obs/metric_names.h. Dots become underscores in
/// the Prometheus rendering.
class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry* Default();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Dumps every registered metric as one JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                  "p50":..,"p95":..,"p99":..}}}
  /// Keys are sorted; the output is deterministic for a quiesced process.
  std::string ToJson() const;

  /// Dumps counters and gauges as Prometheus exposition text with a
  /// "treelattice_" prefix; histograms become _count/_sum plus quantile
  /// gauge lines.
  std::string ToPrometheusText() const;

  /// Zeroes every registered metric (registrations and cached pointers
  /// stay valid). For tests and per-run deltas.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  // The maps only grow; values are stable unique_ptrs, so the pointers
  // handed out by counter()/gauge()/histogram() stay valid without mu_.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      TL_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace treelattice

#endif  // TREELATTICE_OBS_METRICS_H_
