#ifndef TREELATTICE_MATCH_MATCHER_H_
#define TREELATTICE_MATCH_MATCHER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "twig/twig.h"
#include "util/saturating.h"
#include "xml/document.h"

namespace treelattice {

/// Exact twig-match counter over a document.
///
/// Implements Definition 1: a match is a 1-1 mapping from query nodes to
/// document nodes preserving labels and parent-child edges, with no sibling
/// order constraint. Counting runs a bottom-up dynamic program: for each
/// query node q (postorder) and each document node v with the same label,
/// cnt(q, v) is the number of ways to injectively assign q's children to
/// distinct children of v, multiplying the sub-counts. Children with
/// different labels never compete for one document child, so q's children
/// are assigned one same-label group at a time and the groups' counts
/// multiply. Within a group, leaves take distinct document children of
/// their label (a falling factorial), one non-leaf child sums its counts
/// (the paper's standing assumption of distinct sibling labels makes every
/// group one child), and several go through a bitmask assignment DP, so
/// counts stay exact in the general case.
///
/// The label index restricts work to nodes whose label occurs in the query,
/// so counting a size-m twig touches O(sum over q of |nodes(label(q))| *
/// fanout) document nodes. A leaf query node needs no table: it counts 1
/// at every document node with its label.
class MatchCounter {
 public:
  /// Builds the counter (and its label index) for `doc`. The document must
  /// outlive the counter.
  explicit MatchCounter(const Document& doc);

  /// Number of matches of `query` in the document. Zero for an empty query.
  /// Counts saturate at UINT64_MAX on (pathological) overflow.
  ///
  /// Limit: the assignment DP costs 2^j per document node, where j is the
  /// number of non-leaf children one query node has with a single label;
  /// a query with j > kMaxSameLabelBranches returns 0 instead. Same-label
  /// leaves cost nothing extra, however many there are.
  uint64_t Count(const Twig& query) const;

  static constexpr size_t kMaxSameLabelBranches = 20;

  const Document& doc() const { return *doc_; }
  const LabelIndex& label_index() const { return index_; }

 private:
  /// Per-query-node table: document node -> match count of the query
  /// subtree rooted at that query node, keyed only where nonzero. Leaf
  /// query nodes keep theirs empty.
  using CountMap = std::unordered_map<NodeId, uint64_t>;

  /// Computes cnt(q, v) given the children tables.
  uint64_t CountAt(const Twig& query, int q, NodeId v,
                   const std::vector<CountMap>& tables) const;

  /// The ways to assign the group of q's children labeled like q's child
  /// `first` (the first of its label) injectively to children of v:
  /// branches by a sum (one) or a bitmask DP (several), leaves by a
  /// falling factorial over the children the branches leave.
  uint64_t CountGroup(const Twig& query, int q, size_t first, NodeId v,
                      const std::vector<CountMap>& tables) const;

  const Document* doc_;
  LabelIndex index_;
};

}  // namespace treelattice

#endif  // TREELATTICE_MATCH_MATCHER_H_
