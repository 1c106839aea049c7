#ifndef TREELATTICE_CORE_MARKOV_PATH_ESTIMATOR_H_
#define TREELATTICE_CORE_MARKOV_PATH_ESTIMATOR_H_

#include <string>
#include <vector>

#include "core/estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The classic Markov-model path selectivity estimator (Lore / Markov
/// tables / XPathLearner), expressed over the lattice summary.
///
/// For a path l1/l2/.../ln and order m (the summary's max level K),
///   ŝ = f(l1..lm) * Π_{i=2}^{n-m+1} f(lᵢ..lᵢ₊ₘ₋₁) / f(lᵢ..lᵢ₊ₘ₋₂),
/// where f() is the stored count of the corresponding path pattern. Lemma 4
/// proves both decomposition estimators reduce to exactly this formula on
/// path queries; this class exists as the explicit special case (and as the
/// path-only baseline) so the equivalence is testable.
class MarkovPathEstimator : public SelectivityEstimator {
 public:
  explicit MarkovPathEstimator(const LatticeSummary* summary);

  using SelectivityEstimator::Estimate;

  /// Charges `governor` one step per sweep window. Fails with
  /// InvalidArgument on non-path queries.
  Result<double> Estimate(const Twig& query, CostGovernor& governor) override;

  std::string name() const override { return "markov"; }

 private:
  /// Count of the path window labels[begin, begin+len).
  double WindowCount(const std::vector<LabelId>& labels, size_t begin,
                     size_t len) const;

  const LatticeSummary* summary_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_MARKOV_PATH_ESTIMATOR_H_
