#ifndef TREELATTICE_TESTS_AUTOMORPHISMS_H_
#define TREELATTICE_TESTS_AUTOMORPHISMS_H_

#include <cstdint>
#include <vector>

#include "twig/twig.h"

namespace treelattice {

/// Collects the node indices of the full subtree rooted at `root`
/// (preorder-unordered). Never fails for a valid node.
std::vector<int> CollectSubtreeNodes(const Twig& twig, int root);

/// Number of label-preserving automorphisms of the (unordered) twig: the
/// product over nodes of the factorials of the multiplicities of
/// isomorphic child subtrees. Saturates at UINT64_MAX.
///
/// This connects the two counting worlds the paper straddles: the number
/// of *matches* (Definition 1: injective mappings) of a twig equals
/// |Aut(T)| times the total number of order-preserving embeddings of its
/// distinct ordered variants — which is what a Freqt-style ordered miner
/// counts.
uint64_t CountAutomorphisms(const Twig& twig);

/// Number of distinct ordered variants of the unordered twig (orderings of
/// children at every node, modulo identical subtrees). Saturates at
/// UINT64_MAX. For any twig, variants * automorphisms = product over nodes
/// of fanout!.
uint64_t CountOrderedVariants(const Twig& twig);

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_AUTOMORPHISMS_H_
