#ifndef TREELATTICE_CORE_PRUNING_H_
#define TREELATTICE_CORE_PRUNING_H_

#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"
#include "util/result.h"

namespace treelattice {

/// Options for δ-derivable pattern pruning (Section 4.3, Fig. 6).
struct PruneOptions {
  /// Relative error tolerance δ: a pattern whose true count is within δ of
  /// its TreeLattice estimate (computed from the kept smaller patterns) is
  /// derivable and dropped. δ = 0 prunes only exactly-derivable patterns,
  /// which by Lemma 5 leaves every estimate unchanged.
  double delta = 0.0;

  /// Estimator configuration used to decide derivability (non-voting by
  /// default). The δ = 0 losslessness guarantee holds for this
  /// configuration only: a summary pruned for the non-voting recursion
  /// can change voting answers, and the reverse.
  RecursiveDecompositionEstimator::Options estimator;
};

/// Statistics from a pruning pass.
struct PruneStats {
  size_t patterns_before = 0;
  size_t patterns_after = 0;
  size_t bytes_before = 0;
  size_t bytes_after = 0;
};

/// Builds a compressed copy of `summary` with δ-derivable patterns removed.
/// Levels 1-2 are always retained (they anchor every decomposition). The
/// result's complete_through_level drops to 2 whenever at least one pattern
/// was pruned, so estimators fall through missing patterns correctly.
Result<LatticeSummary> PruneDerivablePatterns(const LatticeSummary& summary,
                                              const PruneOptions& options = {},
                                              PruneStats* stats = nullptr);

}  // namespace treelattice

#endif  // TREELATTICE_CORE_PRUNING_H_
