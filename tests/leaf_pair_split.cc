#include "leaf_pair_split.h"

namespace treelattice {

Result<RecursiveSplit> SplitByLeafPair(const Twig& t, int u, int v) {
  if (u == v) return Status::InvalidArgument("SplitByLeafPair: u == v");
  if (t.size() < 3) {
    return Status::InvalidArgument("SplitByLeafPair: twig smaller than 3");
  }
  RecursiveSplit split;
  std::vector<int> map_after_v;
  TL_ASSIGN_OR_RETURN(split.t1, t.RemoveNode(v, &map_after_v));
  TL_ASSIGN_OR_RETURN(split.t2, t.RemoveNode(u));
  int u_in_t1 = map_after_v[static_cast<size_t>(u)];
  if (u_in_t1 < 0) {
    return Status::Internal("SplitByLeafPair: u vanished when removing v");
  }
  TL_ASSIGN_OR_RETURN(split.overlap, split.t1.RemoveNode(u_in_t1));
  return split;
}

std::vector<std::pair<int, int>> ValidLeafPairs(const Twig& t) {
  std::vector<std::pair<int, int>> pairs;
  std::vector<int> removable = t.RemovableNodes();
  for (size_t a = 0; a < removable.size(); ++a) {
    for (size_t b = a + 1; b < removable.size(); ++b) {
      if (SplitByLeafPair(t, removable[a], removable[b]).ok()) {
        pairs.emplace_back(removable[a], removable[b]);
      }
    }
  }
  return pairs;
}

}  // namespace treelattice
