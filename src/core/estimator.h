#ifndef TREELATTICE_CORE_ESTIMATOR_H_
#define TREELATTICE_CORE_ESTIMATOR_H_

#include <cstdint>
#include <string>

#include "twig/twig.h"
#include "util/deadline.h"
#include "util/result.h"

namespace treelattice {

class DecompositionRecord;
class EstimateScratch;

/// Per-request resource limits for an estimation, threaded through the
/// estimator call chain (recursion, voting, fixed-size fallbacks). All
/// limits are optional; the default is ungoverned.
struct EstimateOptions {
  /// Deadline in milliseconds, started by MakeGovernor when an estimator
  /// (one rung of the ladder) starts; 0 or less means none. The ladder
  /// grants each fallback rung a fresh share of it.
  double deadline_millis = 0.0;
  /// Cooperative cancellation; may be flipped from another thread. Not
  /// owned — must outlive the Estimate call.
  const CancelToken* cancel = nullptr;
  /// Upper bound on work steps (summary lookups, splits, sweep windows);
  /// 0 means unlimited.
  uint64_t max_work_steps = 0;
  /// Reusable hot-path buffers (memo, split workspaces); see
  /// core/estimate_scratch.h. Not owned — must outlive the Estimate call
  /// and be used by one thread at a time. nullptr makes estimators fall
  /// back to an internal thread_local scratch.
  EstimateScratch* scratch = nullptr;
  /// When non-null, governed runs add their governor's charged step count
  /// here on return (success or budget trip) — the per-request work-steps
  /// tally surfaced by request tracing. Accumulative across ladder rungs;
  /// ungoverned runs (no governor, nothing counting) add nothing. Does not
  /// make the options governed().
  uint64_t* work_steps = nullptr;
  /// When non-null, the recursive estimator writes into it the Lemma 1
  /// decomposition that produced its answer (core/decomposition_record.h):
  /// the output `treelattice estimate --explain` renders. The ladder hands
  /// it to its primary rung only. Null on every serve and benchmark path.
  DecompositionRecord* record = nullptr;

  bool governed() const {
    return deadline_millis > 0.0 || cancel != nullptr || max_work_steps > 0;
  }

  /// A governor for one estimator run; its deadline starts now.
  CostGovernor MakeGovernor() const {
    return CostGovernor(deadline_millis > 0.0 ? Deadline::After(deadline_millis)
                                              : Deadline::Infinite(),
                        cancel, max_work_steps);
  }
};

/// Interface for twig-query selectivity estimators.
///
/// Estimates are real-valued expected counts (Theorem 1 gives an
/// expectation, not an integer). Implementations must be deterministic for
/// a fixed summary and query.
class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  /// Estimated number of matches of `query` in the summarized document.
  virtual Result<double> Estimate(const Twig& query) = 0;

  /// Governed estimation: like Estimate(query) but aborts with
  /// kDeadlineExceeded / kResourceExhausted / kCancelled when `options`'
  /// budget trips. The base implementation ignores the options (correct
  /// for estimators whose work is trivially bounded); estimators with
  /// unbounded recursion or sweeps override it with cooperative checks.
  virtual Result<double> Estimate(const Twig& query,
                                  const EstimateOptions& options) {
    (void)options;
    return Estimate(query);
  }

  /// Short stable name used in experiment reports.
  virtual std::string name() const = 0;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_ESTIMATOR_H_
