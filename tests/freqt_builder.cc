#include "freqt_builder.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "automorphisms.h"
#include "twig/twig.h"
#include "util/saturating.h"
#include "util/timer.h"

namespace treelattice {

namespace {

/// One rightmost-path occurrence of an ordered pattern: the document-node
/// images of the rightmost path (root first) plus the number of ordered
/// embeddings of the frozen remainder sharing those images.
struct Occurrence {
  std::vector<NodeId> path;
  uint64_t mult = 1;
};

/// An enumerated ordered pattern with its occurrence list.
struct OrderedPattern {
  Twig twig;
  std::vector<int> rm_path;  ///< pattern node ids, root -> rightmost leaf
  std::vector<Occurrence> occurrences;
};

}  // namespace

Result<LatticeSummary> BuildLatticeFreqt(const Document& doc,
                                         const LatticeBuildOptions& options,
                                         FreqtBuildStats* stats) {
  if (options.max_level < 2) {
    return Status::InvalidArgument("BuildLatticeFreqt: max_level must be >= 2");
  }
  WallTimer timer;
  LatticeSummary summary(options.max_level);
  FreqtBuildStats local;

  if (doc.empty()) {
    summary.set_complete_through_level(options.max_level);
    if (stats) {
      local.build_seconds = timer.ElapsedSeconds();
      *stats = local;
    }
    return summary;
  }

  LabelIndex index(doc);

  // Distinct child labels under each parent label, to bound extensions.
  std::unordered_map<LabelId, std::vector<LabelId>> edge_labels;
  {
    std::unordered_map<LabelId, std::unordered_set<LabelId>> sets;
    for (NodeId n = 1; n < static_cast<NodeId>(doc.NumNodes()); ++n) {
      sets[doc.Label(doc.Parent(n))].insert(doc.Label(n));
    }
    for (auto& [parent, children] : sets) {
      edge_labels.emplace(parent, std::vector<LabelId>(children.begin(),
                                                       children.end()));
    }
  }

  // Level 1: one ordered pattern per occurring label; each node is its own
  // rightmost-path occurrence.
  std::vector<OrderedPattern> current;
  for (LabelId label = 0; label < static_cast<LabelId>(index.NumLabels());
       ++label) {
    const std::vector<NodeId>& nodes = index.Nodes(label);
    if (nodes.empty()) continue;
    OrderedPattern pattern;
    pattern.twig.AddNode(label, -1);
    pattern.rm_path = {0};
    pattern.occurrences.reserve(nodes.size());
    for (NodeId v : nodes) pattern.occurrences.push_back({{v}, 1});
    current.push_back(std::move(pattern));
  }

  // Per-level canonical grouping: code -> total ordered embeddings.
  auto flush_level = [&](const std::vector<OrderedPattern>& level_patterns)
      -> Status {
    std::unordered_map<std::string, uint64_t> grouped;
    for (const OrderedPattern& pattern : level_patterns) {
      uint64_t total = 0;
      for (const Occurrence& occ : pattern.occurrences) {
        total = SaturatingAdd(total, occ.mult);
      }
      if (total == 0) continue;
      std::string code = pattern.twig.CanonicalCode();
      auto [it, inserted] = grouped.emplace(code, total);
      if (!inserted) it->second = SaturatingAdd(it->second, total);
    }
    for (const auto& [code, ordered_total] : grouped) {
      Twig twig;
      TL_ASSIGN_OR_RETURN(twig, Twig::FromCanonicalCode(code));
      uint64_t matches =
          SaturatingMul(CountAutomorphisms(twig), ordered_total);
      TL_RETURN_IF_ERROR(summary.Insert(twig, matches));
    }
    return Status::OK();
  };

  TL_RETURN_IF_ERROR(flush_level(current));
  local.ordered_patterns += current.size();

  for (int level = 2; level <= options.max_level; ++level) {
    std::vector<OrderedPattern> next;
    size_t occurrence_volume = 0;
    for (const OrderedPattern& pattern : current) {
      // Extend at every rightmost-path depth with every plausible label.
      for (size_t depth = 0; depth < pattern.rm_path.size(); ++depth) {
        int attach_node = pattern.rm_path[depth];
        auto it = edge_labels.find(pattern.twig.label(attach_node));
        if (it == edge_labels.end()) continue;
        const bool at_leaf = (depth + 1 == pattern.rm_path.size());
        for (LabelId child_label : it->second) {
          std::unordered_map<std::string, Occurrence> merged;
          for (const Occurrence& occ : pattern.occurrences) {
            NodeId anchor = occ.path[depth];
            // First candidate child: all children when extending at the
            // rightmost leaf; otherwise only siblings after the image of
            // the attach node's current last child (occ.path[depth+1]).
            NodeId w = at_leaf ? doc.FirstChild(anchor)
                               : doc.NextSibling(occ.path[depth + 1]);
            for (; w != kInvalidNode; w = doc.NextSibling(w)) {
              if (doc.Label(w) != child_label) continue;
              std::string key(
                  reinterpret_cast<const char*>(occ.path.data()),
                  (depth + 1) * sizeof(NodeId));
              key.append(reinterpret_cast<const char*>(&w), sizeof(NodeId));
              auto [slot, inserted] = merged.emplace(key, Occurrence{});
              if (inserted) {
                slot->second.path.assign(occ.path.begin(),
                                         occ.path.begin() +
                                             static_cast<long>(depth) + 1);
                slot->second.path.push_back(w);
                slot->second.mult = occ.mult;
              } else {
                slot->second.mult =
                    SaturatingAdd(slot->second.mult, occ.mult);
              }
            }
          }
          if (merged.empty()) continue;
          OrderedPattern extended;
          extended.twig = pattern.twig;
          int new_node = extended.twig.AddNode(child_label, attach_node);
          extended.rm_path.assign(pattern.rm_path.begin(),
                                  pattern.rm_path.begin() +
                                      static_cast<long>(depth) + 1);
          extended.rm_path.push_back(new_node);
          extended.occurrences.reserve(merged.size());
          for (auto& [key, occ] : merged) {
            (void)key;
            extended.occurrences.push_back(std::move(occ));
          }
          occurrence_volume += extended.occurrences.size();
          next.push_back(std::move(extended));
        }
      }
    }
    local.ordered_patterns += next.size();
    local.peak_occurrences = std::max(local.peak_occurrences,
                                      occurrence_volume);
    TL_RETURN_IF_ERROR(flush_level(next));
    current = std::move(next);
    if (current.empty()) break;
  }

  summary.set_complete_through_level(options.max_level);
  local.build_seconds = timer.ElapsedSeconds();
  if (stats) *stats = local;
  return summary;
}

}  // namespace treelattice
