#include "match/matcher.h"

#include <array>

namespace treelattice {

MatchCounter::MatchCounter(const Document& doc) : doc_(&doc), index_(doc) {}

uint64_t MatchCounter::CountAt(const Twig& query, int q, NodeId v,
                               const std::vector<CountMap>& tables) const {
  // Children with different labels never compete for one document child,
  // so each label's group of children is counted on its own, at its first
  // child, and the groups multiply.
  const std::vector<int>& kids = query.children(q);
  uint64_t product = 1;
  for (size_t i = 0; i < kids.size() && product != 0; ++i) {
    bool first_of_label = true;
    for (size_t j = 0; j < i && first_of_label; ++j) {
      first_of_label = query.label(kids[j]) != query.label(kids[i]);
    }
    if (first_of_label) {
      product = SaturatingMul(product, CountGroup(query, q, i, v, tables));
    }
  }
  return product;
}

uint64_t MatchCounter::CountGroup(const Twig& query, int q, size_t first,
                                  NodeId v,
                                  const std::vector<CountMap>& tables) const {
  const std::vector<int>& kids = query.children(q);
  const LabelId label = query.label(kids[first]);
  // A branch's table holds only nodes with its label, so the document
  // children of another label are skipped before any probe.
  auto count_at = [&tables](int branch, NodeId w) -> uint64_t {
    const CountMap& table = tables[static_cast<size_t>(branch)];
    auto it = table.find(w);
    return it == table.end() ? 0 : it->second;
  };
  std::array<int, kMaxSameLabelBranches> branches{};  // non-leaf members
  size_t m = 0;
  uint64_t leaves = 0;
  for (size_t i = first; i < kids.size(); ++i) {
    const int qc = kids[i];
    if (query.label(qc) != label) continue;
    if (query.IsLeaf(qc)) {
      ++leaves;
    } else if (m == branches.size()) {
      return 0;  // past the limit documented at Count
    } else {
      branches[m++] = qc;
    }
  }
  uint64_t matching = 0;  // document children with the group's label
  uint64_t count = m == 0 ? 1 : 0;
  for (NodeId w = doc_->FirstChild(v); w != kInvalidNode;
       w = doc_->NextSibling(w)) {
    if (doc_->Label(w) != label) continue;
    ++matching;
    // One branch may take any of them: its count is a sum.
    if (m == 1) count = SaturatingAdd(count, count_at(branches[0], w));
  }
  if (matching < m + leaves) return 0;
  if (m > 1) {
    // Several branches: count injective assignments with a bitmask DP
    // over them (a weighted permanent).
    const size_t full = size_t{1} << m;
    std::vector<uint64_t> dp(full, 0);
    dp[0] = 1;
    for (NodeId w = doc_->FirstChild(v); w != kInvalidNode;
         w = doc_->NextSibling(w)) {
      if (doc_->Label(w) != label) continue;
      // Iterate masks descending so each document child w is used at most
      // once (0/1 knapsack over assignments).
      for (size_t mask = full; mask-- > 0;) {
        if (dp[mask] == 0) continue;
        for (size_t bit = 0; bit < m; ++bit) {
          if (mask & (size_t{1} << bit)) continue;
          const uint64_t c = count_at(branches[bit], w);
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

uint64_t MatchCounter::Count(const Twig& query) const {
  if (query.empty() || doc_->empty()) return 0;
  if (query.size() == 1) return index_.Count(query.label(query.root()));

  // Postorder over the query: children before parents.
  std::vector<int> preorder = query.PreorderNodes();
  std::vector<CountMap> tables(static_cast<size_t>(query.size()));
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    int q = *it;
    if (query.IsLeaf(q)) continue;  // counts 1 wherever its label occurs
    const std::vector<NodeId>& candidates = index_.Nodes(query.label(q));
    CountMap& table = tables[static_cast<size_t>(q)];
    table.reserve(candidates.size());
    for (NodeId v : candidates) {
      uint64_t c = CountAt(query, q, v, tables);
      if (c > 0) table.emplace(v, c);
    }
  }

  uint64_t total = 0;
  for (const auto& [node, count] : tables[static_cast<size_t>(query.root())]) {
    (void)node;
    total = SaturatingAdd(total, count);
  }
  return total;
}

}  // namespace treelattice
