#include "brute_force.h"

#include <vector>

namespace treelattice {

namespace {

/// Extends a partial mapping by assigning query node `q` (whose parent is
/// already mapped, or is the query root) and recursing over the preorder
/// list. Returns the number of completions.
uint64_t Extend(const Document& doc, const Twig& query,
                const std::vector<int>& preorder, size_t pos,
                std::vector<NodeId>& mapping) {
  if (pos == preorder.size()) return 1;
  int q = preorder[pos];
  int qp = query.parent(q);

  uint64_t total = 0;
  auto try_candidate = [&](NodeId v) {
    if (doc.Label(v) != query.label(q)) return;
    // Enforce injectivity.
    for (int other = 0; other < query.size(); ++other) {
      if (mapping[static_cast<size_t>(other)] == v) return;
    }
    mapping[static_cast<size_t>(q)] = v;
    total += Extend(doc, query, preorder, pos + 1, mapping);
    mapping[static_cast<size_t>(q)] = kInvalidNode;
  };

  if (qp == -1) {
    for (NodeId v = 0; v < static_cast<NodeId>(doc.NumNodes()); ++v) {
      try_candidate(v);
    }
  } else {
    NodeId vp = mapping[static_cast<size_t>(qp)];
    for (NodeId w = doc.FirstChild(vp); w != kInvalidNode;
         w = doc.NextSibling(w)) {
      try_candidate(w);
    }
  }
  return total;
}

}  // namespace

uint64_t BruteForceCount(const Document& doc, const Twig& query) {
  if (query.empty() || doc.empty()) return 0;
  std::vector<int> preorder = query.PreorderNodes();
  std::vector<NodeId> mapping(static_cast<size_t>(query.size()), kInvalidNode);
  return Extend(doc, query, preorder, 0, mapping);
}

}  // namespace treelattice
