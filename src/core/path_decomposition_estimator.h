#ifndef TREELATTICE_CORE_PATH_DECOMPOSITION_ESTIMATOR_H_
#define TREELATTICE_CORE_PATH_DECOMPOSITION_ESTIMATOR_H_

#include <string>

#include "core/markov_path_estimator.h"
#include "core/estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The path-only baseline the paper argues against (Section 1/2.2: path
/// methods "do not adapt to twig queries well since path correlations are
/// not accounted for").
///
/// A twig is decomposed into its root-to-leaf paths; under independence of
/// sibling branches given their branch node,
///   ŝ(T) = Π_leaf s(path to leaf) / Π_branch s(path to branch)^(deg-1),
/// i.e. each branching node's incoming-path count divides out the
/// over-multiplied shared prefix. Every path factor is itself estimated
/// with the Markov path model over the same lattice summary (so the
/// comparison isolates *what is summarized* — paths versus subtrees — not
/// the summary machinery). On pure paths this coincides with
/// MarkovPathEstimator; on twigs it ignores all correlation between
/// sibling branches, which is exactly the weakness TreeLattice fixes.
class PathDecompositionEstimator : public SelectivityEstimator {
 public:
  /// The summary must outlive the estimator.
  explicit PathDecompositionEstimator(const LatticeSummary* summary);

  using SelectivityEstimator::Estimate;

  /// Charges `governor` through every path's Markov sweep.
  Result<double> Estimate(const Twig& query, CostGovernor& governor) override;

  std::string name() const override { return "path-decomposition"; }

 private:
  const LatticeSummary* summary_;
  MarkovPathEstimator path_estimator_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_PATH_DECOMPOSITION_ESTIMATOR_H_
