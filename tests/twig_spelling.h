#ifndef TREELATTICE_TESTS_TWIG_SPELLING_H_
#define TREELATTICE_TESTS_TWIG_SPELLING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "twig/twig.h"
#include "util/rng.h"

namespace treelattice {

/// Another spelling of `twig`: the same unordered twig rebuilt through
/// Twig::AddNode, with every node's children in an order drawn from
/// `seed`, numbered in the new preorder as Twig::Parse numbers a text.
/// GeneratePositiveWorkload emits canonical spellings only; this gives the
/// others a query may arrive in.
inline Twig ShuffledSpelling(const Twig& twig, uint64_t seed) {
  Twig out;
  if (twig.empty()) return out;
  Rng rng(seed);
  // (node of `twig`, its parent in `out`), popped in preorder.
  std::vector<std::pair<int, int>> stack = {{twig.root(), -1}};
  while (!stack.empty()) {
    const auto [node, parent] = stack.back();
    stack.pop_back();
    const int added = out.AddNode(twig.label(node), parent);
    std::vector<int> kids = twig.children(node);
    for (size_t i = kids.size(); i > 1; --i) {
      std::swap(kids[i - 1], kids[rng.Uniform(i)]);
    }
    for (auto kid = kids.rbegin(); kid != kids.rend(); ++kid) {
      stack.emplace_back(*kid, added);
    }
  }
  return out;
}

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_TWIG_SPELLING_H_
