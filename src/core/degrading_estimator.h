#ifndef TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
#define TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_

#include <string_view>

#include "core/estimator.h"
#include "core/fixed_size_estimator.h"
#include "core/markov_path_estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The degradation ladder: a best-effort estimator that always tries to
/// return *something* within the caller's budget. BatchEstimator runs
/// every query it estimates through it (DESIGN.md §14). It is the one
/// place that turns a request's EstimateOptions into budgets: each rung
/// runs under a CostGovernor the ladder builds for it.
///
///   rung 0  recursive (optionally voting) decomposition — the accurate,
///           potentially expensive primary (Fig. 4), under
///           EstimateOptions::MakeGovernor()
///   rung 1  fixed-size decomposition — the paper's cheap bounded-cost
///           estimator (Lemmas 2-3), under a fresh grace budget: half the
///           deadline, a fresh step budget, the same cancel token
///   rung 2  markov-path — path queries only; strictly linear work, run
///           under an unlimited governor as the unconditional floor
///
/// When the primary trips its budget (kDeadlineExceeded or
/// kResourceExhausted) the ladder records estimator.deadline_exceeded,
/// steps down a rung (so a request with deadline D completes within ~2x D
/// even when every governed rung runs to its limit), and records
/// estimator.degraded when a fallback rung produces the answer.
/// kCancelled is not degraded — a cancelled request wants no answer at
/// all — and non-budget errors propagate unchanged.
class DegradingEstimator {
 public:
  /// Which rung of the ladder produced an answer.
  enum class Rung { kPrimary = 0, kFixedSize = 1, kMarkovPath = 2 };

  /// Stable rung name used in serve responses and reports:
  /// "primary", "fixed-size", or "markov-path".
  static std::string_view RungName(Rung rung);

  /// The fallback rungs always run at their defaults: fixed-size covers
  /// and markov windows of the summary's max level.
  struct Options {
    /// Primary-rung configuration; voting on by default since the ladder
    /// exists precisely to make the expensive estimator safe to prefer.
    RecursiveDecompositionEstimator::Options primary{
        /*voting=*/true, /*max_votes_per_level=*/0,
        RecursiveDecompositionEstimator::VoteAggregation::kMean};
  };

  /// An estimate annotated with how it was obtained.
  struct DegradedEstimate {
    double estimate = 0.0;
    Rung rung = Rung::kPrimary;
    /// True when a fallback rung answered.
    bool degraded = false;
    /// Why the primary rung gave up (OK when !degraded).
    Status primary_status;
    /// Work steps charged to every rung that ran, the trip step included.
    uint64_t work_steps = 0;
  };

  /// The summary must outlive the estimator.
  explicit DegradingEstimator(const LatticeSummary* summary);
  DegradingEstimator(const LatticeSummary* summary, Options options);

  /// Estimates `query` within `options`' budget, reporting which rung
  /// answered. The primary rung alone runs over `scratch` (its own
  /// thread_local one when null) and writes `options.record`; the
  /// fallback rungs use scratch of their own.
  Result<DegradedEstimate> EstimateDegraded(const Twig& query,
                                            const EstimateOptions& options,
                                            EstimateScratch* scratch = nullptr);

 private:
  RecursiveDecompositionEstimator primary_;
  FixedSizeDecompositionEstimator fixed_size_;
  MarkovPathEstimator markov_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
