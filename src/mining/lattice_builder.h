#ifndef TREELATTICE_MINING_LATTICE_BUILDER_H_
#define TREELATTICE_MINING_LATTICE_BUILDER_H_

#include <cstdint>
#include <vector>

#include "summary/lattice_summary.h"
#include "util/result.h"
#include "xml/document.h"

namespace treelattice {

/// Options for level-wise lattice construction (Section 4.1).
struct LatticeBuildOptions {
  /// Maximum pattern size K; the result is the K-lattice. The paper's
  /// experiments use K = 4 by default.
  int max_level = 4;

  /// Worker threads for candidate counting (the dominant cost). 1 =
  /// sequential; counting is read-only over the document so results are
  /// identical for any thread count.
  int num_threads = 1;
};

/// Statistics reported by BuildLattice.
struct LatticeBuildStats {
  double build_seconds = 0.0;
  std::vector<size_t> patterns_per_level;  // [0] unused; [k] = count
  size_t candidates_generated = 0;
  size_t candidates_counted = 0;  // candidates surviving Apriori
};

/// Enumerates all occurring twig patterns of size <= options.max_level in
/// `doc` (Freqt/TreeMiner-style level-wise extension with canonical-form
/// deduplication) and returns the lattice summary with exact match counts,
/// complete through max_level. From level 3 on, a candidate is counted
/// only if every sub-twig left by removing one of its degree-1 nodes
/// occurred (the Apriori check: occurrence is monotone under that removal,
/// so the check never drops an occurring pattern).
Result<LatticeSummary> BuildLattice(const Document& doc,
                                    const LatticeBuildOptions& options = {},
                                    LatticeBuildStats* stats = nullptr);

}  // namespace treelattice

#endif  // TREELATTICE_MINING_LATTICE_BUILDER_H_
