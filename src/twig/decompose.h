#ifndef TREELATTICE_TWIG_DECOMPOSE_H_
#define TREELATTICE_TWIG_DECOMPOSE_H_

#include <vector>

#include "twig/twig.h"
#include "util/result.h"

namespace treelattice {

/// One recursive-decomposition split of a twig T (Section 3.2): two subtrees
/// obtained by removing one or the other of a pair of degree-1 nodes, plus
/// their overlap (T minus both nodes).
struct RecursiveSplit {
  Twig t1;       ///< T with node v removed (keeps u).
  Twig t2;       ///< T with node u removed (keeps v).
  Twig overlap;  ///< T with both u and v removed.
};

/// Splits `t` by the removable-node pair (u, v). Fails if either index is
/// not removable or removing both does not leave a valid twig. The
/// estimator splits node subsets with bit operations instead; explain and
/// the reference oracle build the twigs.
Result<RecursiveSplit> SplitByLeafPair(const Twig& t, int u, int v);

/// All unordered pairs (u, v), u < v, of removable nodes for which
/// SplitByLeafPair succeeds. Non-empty for every twig with >= 3 nodes.
std::vector<std::pair<int, int>> ValidLeafPairs(const Twig& t);

/// One step of the fixed-size covering scheme (Section 3.3 / Lemma 2).
struct CoverStep {
  Twig subtree;  ///< K-subtree covering one new node.
  Twig overlap;  ///< Its (K-1)-node overlap with the previously covered
                 ///< portion; empty for the first step.
};

/// Covers `t` by n-k+1 k-subtrees along a preorder sweep so that each step
/// after the first overlaps the covered portion in a (k-1)-subtree
/// (Lemma 2). Requires 2 <= k <= t.size(). The selectivity estimate per
/// Lemma 3 is s(step0.subtree) * prod_i s(step_i.subtree)/s(step_i.overlap).
Result<std::vector<CoverStep>> FixedSizeCover(const Twig& t, int k);

}  // namespace treelattice

#endif  // TREELATTICE_TWIG_DECOMPOSE_H_
