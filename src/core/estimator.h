#ifndef TREELATTICE_CORE_ESTIMATOR_H_
#define TREELATTICE_CORE_ESTIMATOR_H_

#include <cstdint>
#include <string>

#include "twig/twig.h"
#include "util/deadline.h"
#include "util/result.h"

namespace treelattice {

class DecompositionRecord;

/// One request's resource limits for an estimation. All limits are
/// optional; the default is unlimited. The degradation ladder
/// (core/degrading_estimator.h) turns them into one CostGovernor per rung.
struct EstimateOptions {
  /// Deadline in milliseconds, started by MakeGovernor when the primary
  /// rung starts; 0 or less means none. The ladder's floor runs without
  /// it.
  double deadline_millis = 0.0;
  /// Cooperative cancellation; may be flipped from another thread. Not
  /// owned — must outlive the estimation.
  const CancelToken* cancel = nullptr;
  /// Upper bound on work steps (sub-twig visits, summary lookups, sweep
  /// windows); 0 means unlimited. Like the deadline, it governs the
  /// ladder's primary rung only.
  uint64_t max_work_steps = 0;
  /// When non-null, the recursive estimator writes into it the Lemma 1
  /// decomposition that produced its answer (core/decomposition_record.h):
  /// the output `treelattice estimate --explain` renders. The ladder hands
  /// it to its primary rung only. Null on every serve and benchmark path.
  DecompositionRecord* record = nullptr;

  /// A governor for these limits; its deadline starts now.
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

  /// Estimated number of matches of `query` in the summarized document,
  /// charging its work to `governor`. Estimators whose work can grow past
  /// a budget (recursion, sweeps) charge as they go and abort with
  /// kDeadlineExceeded / kResourceExhausted / kCancelled when it trips;
  /// trivially bounded ones need not charge at all.
  virtual Result<double> Estimate(const Twig& query,
                                  CostGovernor& governor) = 0;

  /// Estimate under an unlimited governor.
  Result<double> Estimate(const Twig& query) {
    CostGovernor unlimited;
    return Estimate(query, unlimited);
  }

  /// Short stable name used in experiment reports.
  virtual std::string name() const = 0;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_ESTIMATOR_H_
