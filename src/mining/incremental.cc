#include "mining/incremental.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "twig/twig.h"

namespace treelattice {

Result<IncrementalLattice> IncrementalLattice::Create(Document doc,
                                                      int max_level) {
  LatticeBuildOptions options;
  options.max_level = max_level;
  LatticeSummary summary(max_level);
  TL_ASSIGN_OR_RETURN(summary, BuildLattice(doc, options));
  return IncrementalLattice(std::move(doc), std::move(summary), max_level);
}

Result<size_t> IncrementalLattice::InsertSubtree(NodeId parent,
                                                 const Twig& subtree) {
  if (subtree.empty()) {
    return Status::InvalidArgument("InsertSubtree: empty subtree");
  }
  if (doc_.empty() || parent < 0 ||
      parent >= static_cast<NodeId>(doc_.NumNodes())) {
    return Status::InvalidArgument("InsertSubtree: bad parent node");
  }

  // Splice the subtree into the owned document (ids are appended, so the
  // first new id is the node-id limit that counts the document as it was
  // before the splice).
  const NodeId first_new = static_cast<NodeId>(doc_.NumNodes());
  {
    std::vector<NodeId> map(static_cast<size_t>(subtree.size()));
    for (int n : subtree.PreorderNodes()) {
      int p = subtree.parent(n);
      NodeId doc_parent = (p == -1) ? parent : map[static_cast<size_t>(p)];
      map[static_cast<size_t>(n)] = doc_.AddNode(subtree.label(n), doc_parent);
    }
  }

  // Anchor set: every new match maps the pattern root into the new nodes or
  // into the <= K-1 nearest ancestors of the splice point.
  std::vector<NodeId> anchors;
  for (NodeId v = first_new; v < static_cast<NodeId>(doc_.NumNodes()); ++v) {
    anchors.push_back(v);
  }
  {
    NodeId a = parent;
    for (int hops = 0; hops < max_level_ - 1 && a != kInvalidNode; ++hops) {
      anchors.push_back(a);
      a = doc_.Parent(a);
    }
  }

  // Region: nodes reachable from an anchor within K-1 downward edges; the
  // edge labels inside it drive candidate generation.
  std::unordered_map<LabelId, std::unordered_set<LabelId>> region_edges;
  std::unordered_set<LabelId> anchor_labels;
  {
    // FIFO traversal so every node is first visited at its minimum depth
    // (all seeds start at depth 0, so BFS order guarantees this); a LIFO
    // walk could visit an anchor at a larger depth first and prune its
    // own expansion.
    std::vector<std::pair<NodeId, int>> queue;
    std::unordered_set<NodeId> visited;
    for (NodeId a : anchors) {
      anchor_labels.insert(doc_.Label(a));
      queue.push_back({a, 0});
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      auto [v, depth] = queue[head];
      if (!visited.insert(v).second) continue;
      if (depth >= max_level_ - 1) continue;
      for (NodeId w = doc_.FirstChild(v); w != kInvalidNode;
           w = doc_.NextSibling(w)) {
        region_edges[doc_.Label(v)].insert(doc_.Label(w));
        queue.push_back({w, depth + 1});
      }
    }
  }

  // Level-wise candidate enumeration over the anchor neighbourhood, with
  // exact anchored counting before (new nodes excluded) and after.
  size_t changed = 0;
  std::vector<Twig> current;
  std::unordered_set<std::string> seen;
  for (LabelId label : anchor_labels) {
    Twig single;
    single.AddNode(label, -1);
    if (seen.insert(single.CanonicalCode()).second) {
      current.push_back(std::move(single));
    }
  }

  for (int level = 1; level <= max_level_ && !current.empty(); ++level) {
    std::vector<Twig> next;
    std::unordered_set<std::string> next_seen;
    for (const Twig& pattern : current) {
      const uint64_t after_count = MatchCounter::CountRootedAt(
          doc_, pattern, anchors, static_cast<NodeId>(doc_.NumNodes()));
      if (after_count == 0) continue;  // cannot extend either

      const uint64_t before_count =
          MatchCounter::CountRootedAt(doc_, pattern, anchors, first_new);
      if (after_count != before_count) {
        uint64_t delta = after_count - before_count;
        std::string code = pattern.CanonicalCode();
        uint64_t total = summary_.LookupCode(code).value_or(0) + delta;
        TL_RETURN_IF_ERROR(summary_.Insert(pattern, total));
        ++changed;
      }

      if (level == max_level_) continue;
      for (int node = 0; node < pattern.size(); ++node) {
        auto it = region_edges.find(pattern.label(node));
        if (it == region_edges.end()) continue;
        for (LabelId child_label : it->second) {
          Twig candidate = pattern;
          candidate.AddNode(child_label, node);
          if (next_seen.insert(candidate.CanonicalCode()).second) {
            next.push_back(std::move(candidate));
          }
        }
      }
    }
    current = std::move(next);
  }
  return changed;
}

}  // namespace treelattice
