#ifndef TREELATTICE_MATCH_MATCHER_H_
#define TREELATTICE_MATCH_MATCHER_H_

#include <cstdint>
#include <span>

#include "twig/twig.h"
#include "util/saturating.h"
#include "util/status.h"
#include "xml/document.h"

namespace treelattice {

/// Exact twig-match counter over a document.
///
/// Implements Definition 1: a match is a 1-1 mapping from query nodes to
/// document nodes preserving labels and parent-child edges, with no sibling
/// order constraint. Counting evaluates cnt(q, v), the number of matches of
/// q's subtree with q mapped to v, top-down: it starts at the document
/// nodes carrying the root's label and descends only into document children
/// whose label matches a child of q. cnt(q, v) is the number of ways to
/// injectively assign q's children to distinct children of v, multiplying
/// the sub-counts. Children with different labels never compete for one
/// document child, so q's children are assigned one same-label group at a
/// time and the groups' counts multiply. Within a group, leaves take
/// distinct document children of their label (a falling factorial), one
/// non-leaf child sums its counts (the paper's standing assumption of
/// distinct sibling labels makes every group one child), and several go
/// through a bitmask assignment DP over their counts at each matching
/// child, evaluated once into a small matrix, so counts stay exact in the
/// general case.
///
/// No table of counts is kept: the document is a tree, so a pair (q, v)
/// is reached only from the pair of their parents, and each pair is
/// evaluated at most once. Counting touches only the root's candidates and
/// the document nodes a partial match reaches. The recursion goes one level
/// per query level a partial match reaches, so no deeper than the query's
/// height or the document's depth.
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
  /// a query with j > kMaxSameLabelBranches returns 0 instead (Countable
  /// tells such a query apart). Same-label leaves cost nothing extra,
  /// however many there are.
  uint64_t Count(const Twig& query) const;

  /// OK when Count counts `query` exactly; InvalidArgument naming the
  /// limit when a node of it has more than kMaxSameLabelBranches non-leaf
  /// children of one label.
  static Status Countable(const Twig& query);

  /// Number of matches of `query` in `doc` whose root image is one of
  /// `roots`, with every document node of id `limit` or above treated as
  /// absent: ids are assigned in insertion order, so the first id added
  /// after some moment counts the document as it was then. A root of
  /// another label than the query's root, or at or past `limit`, adds
  /// nothing. Count is this over the root label's nodes with no limit.
  static uint64_t CountRootedAt(const Document& doc, const Twig& query,
                                std::span<const NodeId> roots, NodeId limit);

  static constexpr size_t kMaxSameLabelBranches = 20;

  const Document& doc() const { return *doc_; }
  const LabelIndex& label_index() const { return index_; }

 private:
  const Document* doc_;
  LabelIndex index_;
};

}  // namespace treelattice

#endif  // TREELATTICE_MATCH_MATCHER_H_
