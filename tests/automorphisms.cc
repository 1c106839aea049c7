#include "automorphisms.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/saturating.h"

namespace treelattice {

namespace {

uint64_t SaturatingFactorial(uint64_t n) {
  uint64_t result = 1;
  for (uint64_t i = 2; i <= n; ++i) result = SaturatingMul(result, i);
  return result;
}

/// Multiplies `out` by the factorials of the multiplicities of identical
/// codes among `codes`.
uint64_t MultiplicityFactorials(std::vector<std::string>& codes) {
  std::sort(codes.begin(), codes.end());
  uint64_t result = 1;
  size_t i = 0;
  while (i < codes.size()) {
    size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    result = SaturatingMul(result, SaturatingFactorial(j - i));
    i = j;
  }
  return result;
}

}  // namespace

std::vector<int> CollectSubtreeNodes(const Twig& twig, int root) {
  std::vector<int> nodes;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    nodes.push_back(n);
    for (int c : twig.children(n)) stack.push_back(c);
  }
  return nodes;
}

uint64_t CountAutomorphisms(const Twig& twig) {
  if (twig.empty()) return 1;
  uint64_t result = 1;
  // Codes identify subtrees up to isomorphism; per node, each group of k
  // identical child subtrees contributes k! automorphisms.
  std::vector<std::string> child_codes;
  for (int node = 0; node < twig.size(); ++node) {
    const std::vector<int>& kids = twig.children(node);
    if (kids.size() < 2) continue;
    child_codes.clear();
    for (int c : kids) {
      Result<Twig> sub = twig.InducedSubtree(CollectSubtreeNodes(twig, c));
      // InducedSubtree cannot fail on a full subtree node set.
      child_codes.push_back(sub.ok() ? sub->CanonicalCode() : std::string());
    }
    result = SaturatingMul(result, MultiplicityFactorials(child_codes));
  }
  return result;
}

uint64_t CountOrderedVariants(const Twig& twig) {
  if (twig.empty()) return 1;
  // variants = prod over nodes fanout! / automorphisms, computed with the
  // same grouping to avoid overflow order issues.
  uint64_t all_orderings = 1;
  for (int node = 0; node < twig.size(); ++node) {
    all_orderings = SaturatingMul(
        all_orderings, SaturatingFactorial(twig.children(node).size()));
  }
  uint64_t automorphisms = CountAutomorphisms(twig);
  // Exact division holds mathematically; with saturation fall back to 1.
  if (automorphisms == 0 || all_orderings % automorphisms != 0) {
    return all_orderings;
  }
  return all_orderings / automorphisms;
}

}  // namespace treelattice
