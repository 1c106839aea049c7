#ifndef TREELATTICE_TWIG_TWIG_H_
#define TREELATTICE_TWIG_TWIG_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/analysis_annotations.h"
#include "xml/label_dict.h"

namespace treelattice {

/// A set of a twig's nodes is a bitset of NodeSetWords(size) words: node
/// i is bit i % 64 of word i / 64.
inline size_t NodeSetWords(int size) {
  return size <= 0 ? 1 : (static_cast<size_t>(size) + 63) / 64;
}
inline bool NodeSetHas(const uint64_t* nodes, int node) {
  const size_t n = static_cast<size_t>(node);
  return ((nodes[n / 64] >> (n % 64)) & 1) != 0;
}
inline void NodeSetRemove(uint64_t* nodes, int node) {
  const size_t n = static_cast<size_t>(node);
  nodes[n / 64] &= ~(uint64_t{1} << (n % 64));
}
/// A node set's words as bytes: its memo key.
inline std::string_view NodeSetBytes(std::span<const uint64_t> nodes) {
  return std::string_view(reinterpret_cast<const char*>(nodes.data()),
                          nodes.size_bytes());
}

/// Reusable buffers of the canonicalizer (Twig::SubsetCode), indexed by
/// node. Keep one per thread and pass it to every call: a warm scratch
/// allocates nothing.
struct CodeScratch {
  std::vector<int> order;  ///< the subset's nodes, parents before children
  std::vector<int> kids;   ///< each node's children in the subset
  std::vector<uint32_t> kid_begin;  ///< a node's range in `kids`
  std::vector<uint32_t> kid_end;
  std::vector<size_t> length;  ///< length of a node's subtree code
  std::vector<size_t> offset;  ///< where a node's code sits in `codes`
  std::string codes;  ///< the codes of nodes that have a sibling
};

/// A twig: a small rooted node-labeled tree, used both as a query and as a
/// pattern in the lattice summary.
///
/// Nodes are addressed by dense indices; node 0 is always the root for a
/// non-empty twig. Child order is preserved as inserted, but twig identity
/// (equality, hashing, summary lookup) is *unordered*: two twigs are equal
/// iff their canonical codes are equal, and the canonical code sorts each
/// node's children by their recursive codes. This matches Definition 1 of
/// the paper, which places no ordering constraint on sibling matches.
///
/// The canonical code and its 64-bit hash are computed once and cached:
/// the first CanonicalCode()/CanonicalHash()/operator== after a mutation
/// pays the canonicalization, every later call is a pointer read. The
/// cache fill is lock-free (compare-and-swap), so a twig shared read-only
/// between threads — a query hammered by several estimator threads, say —
/// is safe without external locking. Mutating a twig (AddNode)
/// concurrently with any other access was never allowed and still is not.
class Twig {
 public:
  Twig() = default;
  Twig(const Twig& other);
  Twig& operator=(const Twig& other);
  Twig(Twig&& other) noexcept;
  Twig& operator=(Twig&& other) noexcept;
  ~Twig();

  /// Deepest nesting, in edges from the root, that Parse and CompileXPath
  /// accept, so the recursions downstream (estimator, matcher) never see
  /// more. LatticeSummary::kMaxLevelCap caps a pattern's size at the same.
  static constexpr int kMaxDepth = 4096;

  /// Most nodes a query may have: CompileQuery, the compiler of serve,
  /// estimate and truth, refuses a larger twig. The estimator's recursion
  /// nests one frame per removed node, so this bounds it as kMaxDepth does
  /// the matcher's.
  static constexpr int kMaxQueryNodes = kMaxDepth;

  /// Adds a node labeled `label` under `parent` (-1 for the root, allowed
  /// only for the first node). Returns the new node index.
  int AddNode(LabelId label, int parent);

  int size() const { return static_cast<int>(labels_.size()); }
  bool empty() const { return labels_.empty(); }

  LabelId label(int i) const { return labels_[static_cast<size_t>(i)]; }
  int parent(int i) const { return parents_[static_cast<size_t>(i)]; }
  const std::vector<int>& children(int i) const {
    return children_[static_cast<size_t>(i)];
  }
  bool IsLeaf(int i) const { return children(i).empty(); }
  int root() const { return 0; }

  /// Nodes of tree-degree one: leaves, plus the root when it has exactly one
  /// child, in index order. These are the nodes the recursive decomposition
  /// may remove (Section 3.2: a degree-1 root "can also be considered a
  /// leaf"); the estimator finds them in its node subsets itself, and the
  /// miner, the tests' reference recursion and perfbench call this.
  std::vector<int> RemovableNodes() const;

  /// Returns a copy with node `i` removed (i must be a removable node). If
  /// the root is removed its single child becomes the root. Remaining nodes
  /// are renumbered in preorder; if `old_to_new` is non-null it receives the
  /// index mapping (removed node maps to -1).
  Result<Twig> RemoveNode(int i, std::vector<int>* old_to_new = nullptr) const;

  /// Nodes in preorder (root first, children in stored order).
  std::vector<int> PreorderNodes() const;

  /// Extracts the sub-twig induced by `nodes`, which must be non-empty and
  /// connected (every node except the topmost has its parent in the set).
  /// Node order in the result is preorder of the original.
  Result<Twig> InducedSubtree(const std::vector<int>& nodes) const;

  /// Depth (edge count from root) of node `i`.
  int Depth(int i) const;

  /// True if the twig is a pure path (every node has at most one child).
  bool IsPath() const;

  /// Canonical byte string identifying this twig up to sibling reordering.
  /// Stable across processes; usable as a hash-table key and for on-disk
  /// summaries. Computed once and cached; the returned reference stays
  /// valid until the twig is mutated or destroyed.
  TL_HOT const std::string& CanonicalCode() const;

  /// 64-bit hash of the canonical code (cached alongside the code).
  TL_HOT uint64_t CanonicalHash() const;

  /// Rebuilds the canonical code from scratch, bypassing the cache: the
  /// SubsetCode of all nodes. Used by the cache fill and by
  /// cache-consistency tests; everything else should call CanonicalCode().
  // Cold spelling: rebuilding (and first-touch caching) allocates the
  // code string once per twig mutation, never per steady-state probe.
  TL_ALLOC_OK std::string ComputeCanonicalCode() const;

  /// Writes into `out` the canonical code of the connected sub-twig
  /// induced by `nodes`, a non-empty node set. Byte for byte
  /// InducedSubtree(those nodes).ComputeCanonicalCode(), but built
  /// straight from this twig's arrays: no sub-twig, no per-node string.
  /// The one canonicalizer: whole twigs, the estimator's node subsets and
  /// mining all go through it. Counts each code in twig.canonical_codes.
  // Amortized: grows `scratch` and `out` only past their high-water
  // sizes; a warm call allocates nothing.
  TL_ALLOC_OK void SubsetCode(std::span<const uint64_t> nodes,
                              CodeScratch* scratch, std::string* out) const;

  /// Returns an equivalent twig whose node numbering is the canonical
  /// preorder (children sorted by canonical code). Deterministic for equal
  /// twigs regardless of construction order.
  Twig Canonicalized() const;

  /// Parses the textual twig format, e.g. "a(b,c(d,e))". Labels are
  /// interned into `dict`.
  static Result<Twig> Parse(std::string_view text, LabelDict* dict);

  /// Reconstructs a twig from a canonical code previously produced by
  /// CanonicalCode(). Used by summary deserialization.
  static Result<Twig> FromCanonicalCode(std::string_view code);

  /// Renders the twig in the parseable textual format.
  std::string ToString(const LabelDict& dict) const;

  /// Renders with raw label ids (debugging aid when no dict is at hand).
  std::string ToDebugString() const;

  /// Structural equality up to sibling reordering. Compares sizes and root
  /// labels first, then the cached canonical codes — no allocation once
  /// both twigs have their caches warm (and at most one canonicalization
  /// each, ever, rather than two string builds per comparison).
  friend bool operator==(const Twig& a, const Twig& b) {
    if (&a == &b) return true;
    if (a.size() != b.size()) return false;
    if (a.empty()) return true;
    if (a.labels_[0] != b.labels_[0]) return false;
    const CodeCache& ca = a.EnsureCache();
    const CodeCache& cb = b.EnsureCache();
    return ca.hash == cb.hash && ca.code == cb.code;
  }

 private:
  /// The lazily computed canonical form. Immutable once published.
  struct CodeCache {
    std::string code;
    uint64_t hash = 0;
  };

  /// Returns the cache, computing and publishing it (lock-free) if absent.
  // Builds (allocates) the code cache at most once per twig mutation;
  // every steady-state probe takes the pointer-load fast path.
  TL_ALLOC_OK const CodeCache& EnsureCache() const;

  /// Drops the cache; called by mutators, which require exclusive access.
  void InvalidateCache();

  std::vector<LabelId> labels_;
  std::vector<int> parents_;
  std::vector<std::vector<int>> children_;
  mutable std::atomic<CodeCache*> cache_{nullptr};
};

/// Hash functor so Twig can key unordered containers.
struct TwigHash {
  size_t operator()(const Twig& t) const {
    return static_cast<size_t>(t.CanonicalHash());
  }
};

}  // namespace treelattice

#endif  // TREELATTICE_TWIG_TWIG_H_
