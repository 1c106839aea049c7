#ifndef TREELATTICE_TESTS_LEAF_PAIR_SPLIT_H_
#define TREELATTICE_TESTS_LEAF_PAIR_SPLIT_H_

#include <utility>
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
/// estimator splits node subsets with bit operations instead; the
/// reference oracle in estimator_test builds the twigs with this.
Result<RecursiveSplit> SplitByLeafPair(const Twig& t, int u, int v);

/// All unordered pairs (u, v), u < v, of removable nodes for which
/// SplitByLeafPair succeeds. Non-empty for every twig with >= 3 nodes.
std::vector<std::pair<int, int>> ValidLeafPairs(const Twig& t);

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_LEAF_PAIR_SPLIT_H_
