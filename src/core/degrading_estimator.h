#ifndef TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
#define TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_

#include <string>
#include <string_view>

#include "core/estimator.h"

#include "util/analysis_annotations.h"
#include "core/fixed_size_estimator.h"
#include "core/markov_path_estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The degradation ladder: a best-effort estimator that always tries to
/// return *something* within the caller's budget.
///
///   rung 0  recursive (optionally voting) decomposition — the accurate,
///           potentially expensive primary (Fig. 4)
///   rung 1  fixed-size decomposition — the paper's cheap bounded-cost
///           estimator (Lemmas 2-3), run with a fresh grace budget
///   rung 2  markov-path — path queries only; strictly linear work, run
///           ungoverned as the unconditional floor of the ladder
///
/// When the primary trips its budget (kDeadlineExceeded or
/// kResourceExhausted) the ladder records estimator.deadline_exceeded,
/// steps down a rung with a grace budget of half the original deadline
/// (so a request with deadline D completes within ~2x D even when every
/// governed rung runs to its limit), and records estimator.degraded when
/// a fallback rung produces the answer. kCancelled is not degraded — a
/// cancelled request wants no answer at all — and non-budget errors
/// propagate unchanged.
class DegradingEstimator : public SelectivityEstimator {
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
  };

  /// The summary must outlive the estimator.
  explicit DegradingEstimator(const LatticeSummary* summary);
  DegradingEstimator(const LatticeSummary* summary, Options options);

  /// Ungoverned estimation: the primary rung, run to completion.
  TL_HOT Result<double> Estimate(const Twig& query) override;

  /// Governed estimation through the ladder; returns the estimate alone.
  TL_HOT Result<double> Estimate(const Twig& query,
                                 const EstimateOptions& options) override;

  /// Governed estimation reporting which rung answered.
  Result<DegradedEstimate> EstimateDegraded(const Twig& query,
                                            const EstimateOptions& options);

  std::string name() const override {
    return "degrading(" + primary_.name() + ")";
  }

 private:
  /// Budget for a fallback rung: a fresh deadline of half the original
  /// duration (when known) and a fresh step budget; the cancel token is
  /// carried through unchanged.
  EstimateOptions FallbackBudget(const EstimateOptions& original) const;

  RecursiveDecompositionEstimator primary_;
  FixedSizeDecompositionEstimator fixed_size_;
  MarkovPathEstimator markov_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_DEGRADING_ESTIMATOR_H_
