#include "match/matcher.h"

#include <array>
#include <vector>

namespace treelattice {

namespace {

/// cnt(q, v) for one query over one document, evaluated on demand from
/// the pair of parents down (see MatchCounter).
class TopDownCount {
 public:
  TopDownCount(const Document& doc, const Twig& query, NodeId limit)
      : doc_(doc), query_(query), limit_(limit) {}

  uint64_t CountAt(int q, NodeId v) const {
    // Children with different labels never compete for one document
    // child, so each label's group of children is counted on its own, at
    // its first child, and the groups multiply.
    const std::vector<int>& kids = query_.children(q);
    uint64_t product = 1;
    for (size_t i = 0; i < kids.size() && product != 0; ++i) {
      bool first_of_label = true;
      for (size_t j = 0; j < i && first_of_label; ++j) {
        first_of_label = query_.label(kids[j]) != query_.label(kids[i]);
      }
      if (first_of_label) {
        product = SaturatingMul(product, CountGroup(q, i, v));
      }
    }
    return product;
  }

 private:
  /// The document children of v a query child labeled `label` may take.
  template <typename Fn>
  void ForEachChild(NodeId v, LabelId label, Fn&& fn) const {
    for (NodeId w = doc_.FirstChild(v); w != kInvalidNode;
         w = doc_.NextSibling(w)) {
      if (w < limit_ && doc_.Label(w) == label) fn(w);
    }
  }

  /// The ways to assign the group of q's children labeled like q's child
  /// `first` (the first of its label) injectively to children of v:
  /// branches by a sum (one) or a bitmask DP (several), leaves by a
  /// falling factorial over the children the branches leave.
  uint64_t CountGroup(int q, size_t first, NodeId v) const {
    const std::vector<int>& kids = query_.children(q);
    const LabelId label = query_.label(kids[first]);
    std::array<int, MatchCounter::kMaxSameLabelBranches> branches{};
    size_t m = 0;  // non-leaf members
    uint64_t leaves = 0;
    for (size_t i = first; i < kids.size(); ++i) {
      const int qc = kids[i];
      if (query_.label(qc) != label) continue;
      if (query_.IsLeaf(qc)) {
        ++leaves;
      } else if (m == branches.size()) {
        return 0;  // past the limit documented at Count
      } else {
        branches[m++] = qc;
      }
    }
    uint64_t matching = 0;  // document children with the group's label
    ForEachChild(v, label, [&matching](NodeId) { ++matching; });
    if (matching < m + leaves) return 0;
    uint64_t count = 1;
    if (m == 1) {
      // One branch may take any of them: its count is a sum.
      count = 0;
      ForEachChild(v, label, [&](NodeId w) {
        count = SaturatingAdd(count, CountAt(branches[0], w));
      });
    } else if (m > 1) {
      // Several branches: each one's count at each matching child, once,
      // then injective assignments by a bitmask DP over them (a weighted
      // permanent).
      std::vector<uint64_t> counts;  // m per matching child, in order
      counts.reserve(matching * m);
      ForEachChild(v, label, [&](NodeId w) {
        for (size_t bit = 0; bit < m; ++bit) {
          counts.push_back(CountAt(branches[bit], w));
        }
      });
      const size_t full = size_t{1} << m;
      std::vector<uint64_t> dp(full, 0);
      dp[0] = 1;
      for (size_t row = 0; row < counts.size(); row += m) {
        // Iterate masks descending so each document child is used at most
        // once (0/1 knapsack over assignments).
        for (size_t mask = full; mask-- > 0;) {
          if (dp[mask] == 0) continue;
          for (size_t bit = 0; bit < m; ++bit) {
            if (mask & (size_t{1} << bit)) continue;
            const uint64_t c = counts[row + bit];
            if (c == 0) continue;
            size_t next = mask | (size_t{1} << bit);
            dp[next] = SaturatingAdd(dp[next], SaturatingMul(dp[mask], c));
          }
        }
      }
      count = dp[full - 1];
    }
    // Every assignment of the branches uses m of the matching children; the
    // leaves take distinct ones of the rest, a falling factorial.
    for (uint64_t k = 0; k < leaves && count != 0; ++k) {
      count = SaturatingMul(count, matching - m - k);
    }
    return count;
  }

  const Document& doc_;
  const Twig& query_;
  const NodeId limit_;
};

}  // namespace

MatchCounter::MatchCounter(const Document& doc) : doc_(&doc), index_(doc) {}

uint64_t MatchCounter::Count(const Twig& query) const {
  if (query.empty()) return 0;
  const LabelId label = query.label(query.root());
  if (query.size() == 1) return index_.Count(label);
  return CountRootedAt(*doc_, query, index_.Nodes(label),
                       static_cast<NodeId>(doc_->NumNodes()));
}

uint64_t MatchCounter::CountRootedAt(const Document& doc, const Twig& query,
                                     std::span<const NodeId> roots,
                                     NodeId limit) {
  if (query.empty()) return 0;
  const TopDownCount counter(doc, query, limit);
  const LabelId label = query.label(query.root());
  uint64_t total = 0;
  for (NodeId v : roots) {
    if (v >= limit || doc.Label(v) != label) continue;
    total = SaturatingAdd(total, counter.CountAt(query.root(), v));
  }
  return total;
}

}  // namespace treelattice
