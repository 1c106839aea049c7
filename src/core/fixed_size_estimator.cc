#include "core/fixed_size_estimator.h"

#include <cmath>

#include "core/estimator_metrics.h"
#include "obs/trace.h"
#include "twig/decompose.h"

namespace treelattice {

FixedSizeDecompositionEstimator::FixedSizeDecompositionEstimator(
    const LatticeSummary* summary)
    : summary_(summary), fallback_(summary) {}

Result<double> FixedSizeDecompositionEstimator::LookupOrEstimate(
    const Twig& twig, CostGovernor& governor) {
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  if (Status s = governor.Charge(); !s.ok()) return s;
  if (auto count = summary_->Lookup(twig)) {
    metrics.summary_hits->Increment();
    return static_cast<double>(*count);
  }
  if (twig.size() <= summary_->complete_through_level() || twig.size() < 3) {
    metrics.exhaustive_zeros->Increment();
    return 0.0;
  }
  metrics.summary_misses->Increment();
  // A fresh top-level fallback call per pruned window, over the recursive
  // estimator's own thread_local scratch: it resets the memo itself, and
  // never sees the primary rung's batch memo, whose values come from an
  // estimator configured independently of this one (DESIGN.md §14).
  return fallback_.Estimate(twig, governor);
}

Result<double> FixedSizeDecompositionEstimator::Estimate(
    const Twig& query, CostGovernor& governor) {
  if (query.empty()) {
    return Status::InvalidArgument("Estimate: empty query");
  }
  obs::TraceSpan span("estimator.fixed", "core");
  span.SetArg("query_size", static_cast<uint64_t>(query.size()));
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  if (Status s = governor.Charge(); !s.ok()) return s;
  // Directly answerable (or provably absent) queries short-circuit.
  if (auto count = summary_->Lookup(query)) {
    metrics.summary_hits->Increment();
    return static_cast<double>(*count);
  }
  if (query.size() <= summary_->complete_through_level()) {
    metrics.exhaustive_zeros->Increment();
    return 0.0;
  }
  const int k = summary_->max_level();
  if (query.size() <= k) {
    // Too small to cover with k-subtrees (a pruned pattern): recursive
    // fallback from strictly smaller pieces.
    return LookupOrEstimate(query, governor);
  }

  // The sweep follows the canonical preorder, so every spelling of the
  // query is covered by the same windows.
  std::vector<CoverStep> steps;
  TL_ASSIGN_OR_RETURN(steps,
                      FixedSizeCover(query.Canonicalized(), k));
  metrics.decompositions->Increment();
  metrics.cover_steps->Record(steps.size());

  double estimate;
  TL_ASSIGN_OR_RETURN(estimate,
                      LookupOrEstimate(steps[0].subtree, governor));
  if (estimate <= 0.0) return 0.0;
  for (size_t i = 1; i < steps.size(); ++i) {
    double numer, denom;
    TL_ASSIGN_OR_RETURN(numer,
                        LookupOrEstimate(steps[i].subtree, governor));
    if (numer <= 0.0) return 0.0;
    TL_ASSIGN_OR_RETURN(denom,
                        LookupOrEstimate(steps[i].overlap, governor));
    if (denom <= 0.0) return 0.0;  // overlap ⊆ subtree, cannot be rarer
    estimate *= numer / denom;
  }
  return std::isfinite(estimate) ? estimate : SaturatedEstimate();
}

}  // namespace treelattice
