#ifndef TREELATTICE_TWIG_DECOMPOSE_H_
#define TREELATTICE_TWIG_DECOMPOSE_H_

#include <vector>

#include "twig/twig.h"
#include "util/result.h"

namespace treelattice {

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
