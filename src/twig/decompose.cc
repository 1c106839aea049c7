#include "twig/decompose.h"

#include <algorithm>

namespace treelattice {

Result<std::vector<CoverStep>> FixedSizeCover(const Twig& t, int k) {
  if (k < 2) return Status::InvalidArgument("FixedSizeCover: k must be >= 2");
  if (t.size() < k) {
    return Status::InvalidArgument("FixedSizeCover: twig smaller than k");
  }
  const std::vector<int> preorder = t.PreorderNodes();
  std::vector<bool> covered(static_cast<size_t>(t.size()), false);

  std::vector<CoverStep> steps;
  steps.reserve(static_cast<size_t>(t.size() - k + 1));

  // First cover: the first k preorder nodes (a preorder prefix is always a
  // connected subtree containing the root).
  std::vector<int> first(preorder.begin(), preorder.begin() + k);
  CoverStep step0;
  TL_ASSIGN_OR_RETURN(step0.subtree, t.InducedSubtree(first));
  steps.push_back(std::move(step0));
  for (int n : first) covered[static_cast<size_t>(n)] = true;

  // Subsequent covers: each uncovered preorder node v joins a connected set
  // S of k-1 already-covered nodes that contains parent(v). We prefer v's
  // ancestors (capturing vertical correlation), then extend S with covered
  // children of S members in preorder order.
  for (size_t idx = static_cast<size_t>(k); idx < preorder.size(); ++idx) {
    int v = preorder[idx];
    std::vector<int> selected;
    std::vector<bool> in_selected(static_cast<size_t>(t.size()), false);
    for (int a = t.parent(v); a != -1 && static_cast<int>(selected.size()) < k - 1;
         a = t.parent(a)) {
      // Ancestors precede v in preorder, hence are covered.
      selected.push_back(a);
      in_selected[static_cast<size_t>(a)] = true;
    }
    // Extend with covered children adjacent to the selected set.
    size_t frontier = 0;
    while (static_cast<int>(selected.size()) < k - 1 &&
           frontier < selected.size()) {
      int node = selected[frontier++];
      for (int c : t.children(node)) {
        if (static_cast<int>(selected.size()) >= k - 1) break;
        if (c == v) continue;
        if (!covered[static_cast<size_t>(c)]) continue;
        if (in_selected[static_cast<size_t>(c)]) continue;
        selected.push_back(c);
        in_selected[static_cast<size_t>(c)] = true;
      }
    }
    if (static_cast<int>(selected.size()) < k - 1) {
      return Status::Internal(
          "FixedSizeCover: could not assemble a (k-1)-overlap — tree "
          "connectivity violated");
    }
    CoverStep step;
    TL_ASSIGN_OR_RETURN(step.overlap, t.InducedSubtree(selected));
    selected.push_back(v);
    TL_ASSIGN_OR_RETURN(step.subtree, t.InducedSubtree(selected));
    steps.push_back(std::move(step));
    covered[static_cast<size_t>(v)] = true;
  }
  return steps;
}

}  // namespace treelattice
