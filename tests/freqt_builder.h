#ifndef TREELATTICE_TESTS_FREQT_BUILDER_H_
#define TREELATTICE_TESTS_FREQT_BUILDER_H_

#include "mining/lattice_builder.h"
#include "summary/lattice_summary.h"
#include "util/result.h"
#include "xml/document.h"

namespace treelattice {

/// Statistics reported by BuildLatticeFreqt.
struct FreqtBuildStats {
  double build_seconds = 0.0;
  /// Distinct *ordered* patterns enumerated (>= the unordered count).
  size_t ordered_patterns = 0;
  /// Largest occurrence-list volume held at any level (entries).
  size_t peak_occurrences = 0;
};

/// Builds the lattice summary with the Freqt/TreeMiner rightmost-extension
/// algorithm the paper cites for its implementation (Section 4.1-4.2).
///
/// Ordered subtree patterns are enumerated uniquely by extending only
/// along the rightmost path, with occurrence lists keyed by the rightmost
/// path's document-node images (the frozen remainder aggregated into a
/// multiplicity), so counting never rescans the document. Ordered
/// embedding totals are then folded into the paper's *match* counts
/// (Definition 1) by grouping ordered variants under their canonical
/// unordered form and multiplying by the twig's automorphism count:
///   matches(T) = |Aut(T)| * sum over ordered variants V of embeddings(V).
///
/// It counts by another route than BuildLattice, so freqt_test keeps it as
/// that builder's oracle: both must produce the same summary. It is not a
/// production miner: at benchmark scale it runs many times slower than
/// BuildLattice (EXPERIMENTS.md), and its occurrence lists take memory
/// proportional to embedding path volume.
/// options.num_threads is ignored (the rightmost-extension enumeration
/// counts as it enumerates).
Result<LatticeSummary> BuildLatticeFreqt(const Document& doc,
                                         const LatticeBuildOptions& options,
                                         FreqtBuildStats* stats = nullptr);

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_FREQT_BUILDER_H_
