#ifndef TREELATTICE_CORE_ESTIMATOR_METRICS_H_
#define TREELATTICE_CORE_ESTIMATOR_METRICS_H_

#include <limits>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/analysis_annotations.h"

namespace treelattice {

/// Estimation telemetry, shared by every estimator so per-query dumps (CLI
/// `estimate --json`) can read one set of names regardless of the
/// configured estimator:
///   estimator.summary_hits            lattice lookups answered directly
///   estimator.summary_misses          lookups that fell through
///   estimator.exhaustive_zeros        misses answered 0 by completeness
///   estimator.decompositions          Lemma 1 splits performed
///   estimator.zero_overlap_fallbacks  splits voided by a zero component
///   estimator.memo_hits               sub-twig estimates served from memo
///   estimator.decomposition_depth     (histogram) recursion depth / query
///   estimator.voting_fanout           (histogram) votes per split
///   estimator.cover_steps             (histogram) fixed-size cover length
///   estimator.deadline_exceeded       primary estimates aborted by budget
///                                     (deadline or work-step exhaustion)
///   estimator.degraded                answers served by the degradation
///                                     ladder's floor (fixed-size rung)
///   estimator.saturations             votes, aggregates and fixed-size
///                                     products past the largest double,
///                                     answered as that double
struct EstimatorMetrics {
  obs::Counter* summary_hits;
  obs::Counter* summary_misses;
  obs::Counter* exhaustive_zeros;
  obs::Counter* decompositions;
  obs::Counter* zero_overlap_fallbacks;
  obs::Counter* memo_hits;
  obs::Histogram* decomposition_depth;
  obs::Histogram* voting_fanout;
  obs::Histogram* cover_steps;
  obs::Counter* deadline_exceeded;
  obs::Counter* degraded;
  obs::Counter* saturations;

  // One-time registration: every counter is resolved once into a
  // function-local static; steady-state calls are a guard check.
  TL_ALLOC_OK static EstimatorMetrics& Get() {
    static EstimatorMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return EstimatorMetrics{
          registry->counter(names::kEstimatorSummaryHits),
          registry->counter(names::kEstimatorSummaryMisses),
          registry->counter(names::kEstimatorExhaustiveZeros),
          registry->counter(names::kEstimatorDecompositions),
          registry->counter(names::kEstimatorZeroOverlapFallbacks),
          registry->counter(names::kEstimatorMemoHits),
          registry->histogram(names::kEstimatorDecompositionDepth),
          registry->histogram(names::kEstimatorVotingFanout),
          registry->histogram(names::kEstimatorCoverSteps),
          registry->counter(names::kEstimatorDeadlineExceeded),
          registry->counter(names::kEstimatorDegraded),
          registry->counter(names::kEstimatorSaturations)};
    }();
    return m;
  }
};

/// An estimate that is not finite, overflowed past the largest double:
/// returns that double, counted in estimator.saturations. Out of line, so
/// the recursion's frame does not grow for a case it rarely meets.
[[gnu::noinline]] inline double SaturatedEstimate() {
  EstimatorMetrics::Get().saturations->Increment();
  return std::numeric_limits<double>::max();
}

}  // namespace treelattice

#endif  // TREELATTICE_CORE_ESTIMATOR_METRICS_H_
