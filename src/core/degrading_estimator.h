#ifndef TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
#define TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_

#include <string_view>

#include "core/estimator.h"
#include "core/fixed_size_estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The degradation ladder: a best-effort estimator that answers every
/// query its primary gives up on. BatchEstimator runs every query it
/// estimates through it (DESIGN.md §14). It is the one place that turns a
/// request's EstimateOptions into budgets: each rung runs under a
/// CostGovernor the ladder builds for it.
///
///   rung 0  recursive (optionally voting) decomposition — the accurate,
///           potentially expensive primary (Fig. 4), under
///           EstimateOptions::MakeGovernor()
///   rung 1  fixed-size decomposition — the paper's cheap estimator
///           (Lemmas 2-3) and the ladder's floor, under a governor that
///           holds only the request's cancel token
///
/// The floor needs no budget of its own: it makes at most 2(n-k)+2
/// summary lookups for an n-node query and k-level summary, plus
/// recursions of at most k nodes over windows a pruned summary lacks, and
/// CompileQuery caps n (Twig::kMaxQueryNodes). On a path it computes the
/// (k-1)-order Markov formula (Lemma 4).
///
/// When the primary trips its budget (kDeadlineExceeded or
/// kResourceExhausted) the ladder records estimator.deadline_exceeded,
/// runs the floor, and records estimator.degraded when it answers: a
/// request with deadline D completes within D plus one floor pass.
/// kCancelled is not degraded — a cancelled request wants no answer at
/// all — and non-budget errors propagate unchanged.
class DegradingEstimator {
 public:
  /// Which rung of the ladder produced an answer.
  enum class Rung { kPrimary = 0, kFixedSize = 1 };

  /// Stable rung name used in serve responses and reports: "primary" or
  /// "fixed-size".
  static std::string_view RungName(Rung rung);

  /// The floor always runs at its default: covers of the summary's max
  /// level.
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
    /// True when the floor answered.
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
  /// thread_local one when null) and writes `options.record`; the floor
  /// uses scratch of its own.
  Result<DegradedEstimate> EstimateDegraded(const Twig& query,
                                            const EstimateOptions& options,
                                            EstimateScratch* scratch = nullptr);

 private:
  RecursiveDecompositionEstimator primary_;
  FixedSizeDecompositionEstimator fixed_size_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
