#ifndef TREELATTICE_CORE_FIXED_SIZE_ESTIMATOR_H_
#define TREELATTICE_CORE_FIXED_SIZE_ESTIMATOR_H_

#include <string>

#include "core/estimator.h"

#include "util/analysis_annotations.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The fixed-size decomposition estimator (Section 3.3, Fig. 5).
///
/// Over a K-lattice, the query is covered by n-k+1 k-subtrees (k = K,
/// the summary's max level) along a sweep of its canonical preorder
/// (Lemma 2), so the estimate is a function of its canonical code; by
/// Lemma 3
///   ŝ(Q) = s(T1) * Π_{i>=2} s(Tᵢ) / s(Tᵢ ∩ covered_{i-1}),
/// where every factor is a summary lookup. On a pruned summary a missing
/// basic twig falls back to the non-voting recursive decomposition from
/// smaller patterns (Lemma 5 keeps this lossless at δ = 0 for a summary
/// pruned for that recursion, as PruneOptions' default is). A product
/// past the largest double answers that double (estimator.saturations).
///
/// It is the degradation ladder's floor (core/degrading_estimator.h): on
/// a path it computes MarkovPathEstimator's (k-1)-order formula, bit for
/// bit (Lemma 4).
class FixedSizeDecompositionEstimator : public SelectivityEstimator {
 public:
  explicit FixedSizeDecompositionEstimator(const LatticeSummary* summary);

  using SelectivityEstimator::Estimate;

  /// Charges `governor` one step per sweep window / summary lookup and
  /// threads it into the recursive fallback.
  // The ladder's floor, not a hot-path root: building the fixed-size cover
  // allocates its step list per query by design; the ladder only lands
  // here after the primary rung exhausted its budget.
  TL_ALLOC_OK Result<double> Estimate(const Twig& query,
                                      CostGovernor& governor) override;

  std::string name() const override { return "fixed-size"; }

 private:
  /// Summary lookup for a basic twig, falling back to recursive
  /// decomposition when the pattern was pruned.
  Result<double> LookupOrEstimate(const Twig& twig, CostGovernor& governor);

  const LatticeSummary* summary_;
  RecursiveDecompositionEstimator fallback_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_FIXED_SIZE_ESTIMATOR_H_
