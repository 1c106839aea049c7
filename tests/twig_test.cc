#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "twig/twig.h"
#include "util/hash.h"
#include "util/rng.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(TwigTest, BuildBasics) {
  Twig t;
  int root = t.AddNode(0, -1);
  int b = t.AddNode(1, root);
  int c = t.AddNode(2, root);
  t.AddNode(3, b);
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.parent(b), root);
  EXPECT_TRUE(t.IsLeaf(c));
  EXPECT_FALSE(t.IsLeaf(b));
}

TEST(TwigTest, ParseAndToString) {
  LabelDict dict;
  Twig t = MustParse("a(b,c(d,e))", &dict);
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.ToString(dict), "a(b,c(d,e))");
}

TEST(TwigTest, ParseSingleNode) {
  LabelDict dict;
  Twig t = MustParse("root", &dict);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.ToString(dict), "root");
}

TEST(TwigTest, ParseWithWhitespace) {
  LabelDict dict;
  Twig t = MustParse("  a ( b , c ) ", &dict);
  EXPECT_EQ(t.size(), 3);
}

TEST(TwigTest, ParseErrors) {
  LabelDict dict;
  EXPECT_FALSE(Twig::Parse("", &dict).ok());
  EXPECT_FALSE(Twig::Parse("a(b", &dict).ok());
  EXPECT_FALSE(Twig::Parse("a(b))", &dict).ok());
  EXPECT_FALSE(Twig::Parse("a(,b)", &dict).ok());
  EXPECT_FALSE(Twig::Parse("(a)", &dict).ok());
  EXPECT_FALSE(Twig::Parse("a b", &dict).ok());
  EXPECT_FALSE(Twig::Parse("a(b)c", &dict).ok());
}

TEST(TwigTest, ParseNullDictRejected) {
  EXPECT_FALSE(Twig::Parse("a", nullptr).ok());
}

TEST(TwigTest, CanonicalCodeInvariantUnderSiblingOrder) {
  LabelDict dict;
  Twig t1 = MustParse("a(b,c(d,e))", &dict);
  Twig t2 = MustParse("a(c(e,d),b)", &dict);
  EXPECT_EQ(t1.CanonicalCode(), t2.CanonicalCode());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1.CanonicalHash(), t2.CanonicalHash());
}

TEST(TwigTest, EqualityIsOrderIndependentAndAllocationFree) {
  // Regression for the old operator== that stringified both sides per
  // comparison: structural equality must hold regardless of the order
  // nodes were added (sibling insertion order is not structure), across
  // copies, and for twigs whose canonical caches are in different states
  // (one warm, one cold).
  LabelDict dict;
  Twig ab_first = MustParse("a(b,c)", &dict);
  Twig ac_first = MustParse("a(c,b)", &dict);
  EXPECT_TRUE(ab_first == ac_first);
  EXPECT_FALSE(ab_first != ac_first);

  // Warm one side's cache only; equality must not depend on which side
  // (or whether either) has canonicalized before.
  Twig cold = MustParse("a(b,c)", &dict);
  Twig warm = MustParse("a(c,b)", &dict);
  (void)warm.CanonicalCode();
  EXPECT_TRUE(cold == warm);
  EXPECT_TRUE(warm == cold);

  EXPECT_FALSE(MustParse("a(b,c)", &dict) == MustParse("a(b,d)", &dict));
  EXPECT_FALSE(MustParse("a(b,c)", &dict) == MustParse("a(b)", &dict));
  EXPECT_FALSE(MustParse("a(b,c)", &dict) == MustParse("b(b,c)", &dict));
  EXPECT_TRUE(Twig() == Twig());
  EXPECT_FALSE(Twig() == MustParse("a", &dict));
}

TEST(TwigTest, CachedCanonicalCodeTracksMutation) {
  // CanonicalCode() is computed once and cached; every mutation path must
  // invalidate it so the cache never serves the pre-mutation code.
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  const std::string before = t.CanonicalCode();
  EXPECT_EQ(before, t.ComputeCanonicalCode());
  EXPECT_EQ(t.CanonicalHash(), Twig(t).CanonicalHash());

  t.AddNode(dict.Intern("d"), t.root());
  EXPECT_EQ(t.CanonicalCode(), t.ComputeCanonicalCode());
  EXPECT_NE(t.CanonicalCode(), before);

  Result<Twig> removed = t.RemoveNode(t.size() - 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->CanonicalCode(), removed->ComputeCanonicalCode());
  EXPECT_EQ(removed->CanonicalCode(), before);

  // Copy/move transfer or rebuild the cache but never share a stale one.
  Twig copy = t;
  EXPECT_EQ(copy.CanonicalCode(), t.CanonicalCode());
  copy.AddNode(dict.Intern("e"), copy.root());
  EXPECT_NE(copy.CanonicalCode(), t.CanonicalCode());
  Twig moved = std::move(copy);
  EXPECT_EQ(moved.CanonicalCode(), moved.ComputeCanonicalCode());

  t = Twig();
  EXPECT_EQ(t.size(), 0);
  int root = t.AddNode(dict.Intern("z"), -1);
  (void)root;
  EXPECT_EQ(t.CanonicalCode(), t.ComputeCanonicalCode());
  EXPECT_EQ(t.CanonicalHash(), HashBytes(t.CanonicalCode()));
}

TEST(TwigTest, CanonicalCodeDistinguishesStructure) {
  LabelDict dict;
  Twig flat = MustParse("a(b,c)", &dict);
  Twig nested = MustParse("a(b(c))", &dict);
  EXPECT_NE(flat.CanonicalCode(), nested.CanonicalCode());
}

TEST(TwigTest, CanonicalCodeDistinguishesDuplicateSiblings) {
  LabelDict dict;
  Twig two = MustParse("a(b,b)", &dict);
  Twig one = MustParse("a(b)", &dict);
  EXPECT_NE(two.CanonicalCode(), one.CanonicalCode());
}

TEST(TwigTest, FromCanonicalCodeRoundTrip) {
  LabelDict dict;
  Twig t = MustParse("a(b,c(d,e),b)", &dict);
  std::string code = t.CanonicalCode();
  Result<Twig> back = Twig::FromCanonicalCode(code);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->CanonicalCode(), code);
  EXPECT_EQ(back->size(), t.size());
}

TEST(TwigTest, FromCanonicalCodeRejectsGarbage) {
  EXPECT_FALSE(Twig::FromCanonicalCode("").ok());
  EXPECT_FALSE(Twig::FromCanonicalCode("abc").ok());
  EXPECT_FALSE(Twig::FromCanonicalCode("1(2").ok());
}

TEST(TwigTest, CanonicalizedIsStable) {
  LabelDict dict;
  Twig t = MustParse("a(c(e,d),b)", &dict);
  Twig canon = t.Canonicalized();
  EXPECT_EQ(canon.CanonicalCode(), t.CanonicalCode());
  // Canonicalizing twice is a fixpoint on node order.
  Twig canon2 = canon.Canonicalized();
  for (int i = 0; i < canon.size(); ++i) {
    EXPECT_EQ(canon.label(i), canon2.label(i));
    EXPECT_EQ(canon.parent(i), canon2.parent(i));
  }
}

TEST(TwigTest, PreorderVisitsAllNodesRootFirst) {
  LabelDict dict;
  Twig t = MustParse("a(b(c),d)", &dict);
  std::vector<int> order = t.PreorderNodes();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], t.root());
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
  // Every node appears after its parent.
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = int(i);
  for (int n = 0; n < t.size(); ++n) {
    if (t.parent(n) != -1) {
      EXPECT_LT(position[t.parent(n)], position[n]);
    }
  }
}

TEST(TwigTest, RemovableNodes) {
  LabelDict dict;
  // Path: root has degree 1 so it is removable, as is the leaf.
  Twig path = MustParse("a(b(c))", &dict);
  std::vector<int> removable = path.RemovableNodes();
  EXPECT_EQ(removable.size(), 2u);

  // Star: only the two leaves.
  Twig star = MustParse("a(b,c)", &dict);
  removable = star.RemovableNodes();
  ASSERT_EQ(removable.size(), 2u);
  EXPECT_TRUE(star.IsLeaf(removable[0]));
  EXPECT_TRUE(star.IsLeaf(removable[1]));

  // Single node: nothing to remove.
  Twig single = MustParse("a", &dict);
  EXPECT_TRUE(single.RemovableNodes().empty());
}

TEST(TwigTest, RemoveLeaf) {
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  int c_node = 2;
  std::vector<int> map;
  Result<Twig> removed = t.RemoveNode(c_node, &map);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->size(), 2);
  EXPECT_EQ(removed->ToString(dict), "a(b)");
  EXPECT_EQ(map[c_node], -1);
  EXPECT_EQ(map[0], 0);
}

TEST(TwigTest, RemoveDegreeOneRootPromotesChild) {
  LabelDict dict;
  Twig t = MustParse("a(b(c,d))", &dict);
  Result<Twig> removed = t.RemoveNode(t.root());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->ToString(dict), "b(c,d)");
}

TEST(TwigTest, RemoveInteriorRejected) {
  LabelDict dict;
  Twig t = MustParse("a(b(c),d)", &dict);
  EXPECT_FALSE(t.RemoveNode(1).ok());   // b is interior
  EXPECT_FALSE(t.RemoveNode(0).ok());   // root with two children
  EXPECT_FALSE(t.RemoveNode(99).ok());  // out of range
}

TEST(TwigTest, InducedSubtree) {
  LabelDict dict;
  Twig t = MustParse("a(b(c),d)", &dict);
  Result<Twig> sub = t.InducedSubtree({0, 1, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->ToString(dict), "a(b,d)");
}

TEST(TwigTest, InducedSubtreeRejectsDisconnected) {
  LabelDict dict;
  Twig t = MustParse("a(b(c),d)", &dict);
  EXPECT_FALSE(t.InducedSubtree({2, 3}).ok());  // c and d not connected
  EXPECT_FALSE(t.InducedSubtree({}).ok());
  EXPECT_FALSE(t.InducedSubtree({42}).ok());
}

TEST(TwigTest, DepthAndIsPath) {
  LabelDict dict;
  Twig path = MustParse("a(b(c(d)))", &dict);
  EXPECT_TRUE(path.IsPath());
  EXPECT_EQ(path.Depth(0), 0);
  EXPECT_EQ(path.Depth(3), 3);
  Twig branch = MustParse("a(b,c)", &dict);
  EXPECT_FALSE(branch.IsPath());
}

/// The canonical code written the plain way: a node's label, then its
/// children's codes sorted as strings, comma-separated in parentheses.
std::string ReferenceCode(const Twig& t, int node) {
  std::vector<std::string> kids;
  for (int child : t.children(node)) kids.push_back(ReferenceCode(t, child));
  std::sort(kids.begin(), kids.end());
  std::string code = std::to_string(t.label(node));
  if (kids.empty()) return code;
  code += '(';
  for (size_t i = 0; i < kids.size(); ++i) {
    if (i > 0) code += ',';
    code += kids[i];
  }
  return code + ')';
}

/// Node subsets of `t` reached from all its nodes by removing degree-1
/// nodes (leaves of the subset, or its top when that has one child), breadth
/// first, at most `cap` of them; the estimator's recursion visits only these.
std::vector<std::vector<uint64_t>> ReachableSubsets(const Twig& t,
                                                    size_t cap) {
  std::vector<uint64_t> all(NodeSetWords(t.size()), 0);
  for (int i = 0; i < t.size(); ++i) all[i / 64] |= uint64_t{1} << (i % 64);
  std::vector<std::vector<uint64_t>> out = {all};
  std::set<std::vector<uint64_t>> seen = {all};
  for (size_t next = 0; next < out.size() && out.size() < cap; ++next) {
    const std::vector<uint64_t> nodes = out[next];
    auto in = [&nodes](int node) { return NodeSetHas(nodes.data(), node); };
    int size = 0;
    for (int i = 0; i < t.size(); ++i) size += in(i) ? 1 : 0;
    if (size <= 1) continue;
    for (int i = 0; i < t.size(); ++i) {
      if (!in(i)) continue;
      int kids = 0;
      for (int child : t.children(i)) kids += in(child) ? 1 : 0;
      const bool top = t.parent(i) == -1 || !in(t.parent(i));
      if (kids != (top ? 1 : 0)) continue;
      std::vector<uint64_t> smaller = nodes;
      NodeSetRemove(smaller.data(), i);
      if (seen.insert(smaller).second) out.push_back(std::move(smaller));
    }
  }
  return out;
}

TEST(TwigTest, SubsetCodeMatchesTheInducedSubtreeCode) {
  // The estimator canonicalizes node subsets of a query in place; each
  // code must be byte for byte the code of the materialized sub-twig.
  // Labels run to two digits, so string order differs from numeric order,
  // and a small alphabet makes duplicate sibling labels common. A random
  // parent below each node's index rarely gives a preorder numbering.
  LabelDict dict;
  std::vector<Twig> twigs;
  Rng rng(17);
  for (int round = 0; round < 40; ++round) {
    const int n = 3 + static_cast<int>(rng.Uniform(10));
    const uint64_t labels = round % 2 == 0 ? 3 : 14;
    Twig t;
    t.AddNode(static_cast<LabelId>(rng.Uniform(labels)), -1);
    for (int i = 1; i < n; ++i) {
      t.AddNode(static_cast<LabelId>(rng.Uniform(labels)),
                static_cast<int>(rng.Uniform(static_cast<uint64_t>(i))));
    }
    twigs.push_back(std::move(t));
  }
  twigs.push_back(MustParse("r(x(p,q,s(t)),x(p,q,s(t)))", &dict));
  twigs.push_back(MustParse("a(a(a(a(a(a)))))", &dict));
  twigs.push_back(MustParse("a(b,b,b,b,b,b,b)", &dict));
  Twig not_preorder;  // a(b(d),c), with d numbered after c
  const int a = not_preorder.AddNode(dict.Intern("a"), -1);
  const int b = not_preorder.AddNode(dict.Intern("b"), a);
  not_preorder.AddNode(dict.Intern("c"), a);
  not_preorder.AddNode(dict.Intern("d"), b);
  twigs.push_back(std::move(not_preorder));
  Twig wide;  // 70 nodes: subsets span two words
  wide.AddNode(0, -1);
  for (int i = 1; i < 70; ++i) {
    wide.AddNode(static_cast<LabelId>(rng.Uniform(4)),
                 static_cast<int>(rng.Uniform(static_cast<uint64_t>(i))));
  }
  twigs.push_back(std::move(wide));

  CodeScratch scratch;
  std::string code;
  size_t checked = 0;
  for (const Twig& t : twigs) {
    EXPECT_EQ(t.ComputeCanonicalCode(), ReferenceCode(t, t.root()));
    for (const std::vector<uint64_t>& nodes : ReachableSubsets(t, 3000)) {
      std::vector<int> members;
      for (int i = 0; i < t.size(); ++i) {
        if (NodeSetHas(nodes.data(), i)) members.push_back(i);
      }
      Result<Twig> induced = t.InducedSubtree(members);
      ASSERT_TRUE(induced.ok()) << induced.status().ToString();
      t.SubsetCode(nodes, &scratch, &code);
      ASSERT_EQ(code, induced->ComputeCanonicalCode()) << t.ToDebugString();
      ASSERT_EQ(code, ReferenceCode(*induced, induced->root()));
      ++checked;
    }
  }
  EXPECT_GT(checked, 5000u);
}

// Property sweep: canonical code is invariant under random sibling
// permutations of randomly built twigs.
class TwigCanonicalProperty : public testing::TestWithParam<int> {};

TEST_P(TwigCanonicalProperty, InvariantUnderShuffle) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Build a random twig with up to 10 nodes and 4 labels.
  const int n = 2 + static_cast<int>(rng.Uniform(9));
  std::vector<int> parents(n, -1);
  Twig original;
  original.AddNode(static_cast<LabelId>(rng.Uniform(4)), -1);
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i)));
    original.AddNode(static_cast<LabelId>(rng.Uniform(4)), parent);
    parents[i] = parent;
  }
  // Rebuild with children inserted in a different (reversed per node)
  // order: insert nodes by descending index groups. Equivalent tree.
  Twig shuffled;
  std::vector<int> new_index(static_cast<size_t>(n), -1);
  // Insert in BFS order with reversed child lists.
  std::vector<std::vector<int>> children(static_cast<size_t>(n));
  for (int i = 1; i < n; ++i) children[parents[i]].push_back(i);
  std::vector<int> queue = {0};
  new_index[0] = shuffled.AddNode(original.label(0), -1);
  for (size_t head = 0; head < queue.size(); ++head) {
    int node = queue[head];
    auto kids = children[node];
    std::reverse(kids.begin(), kids.end());
    for (int k : kids) {
      new_index[k] = shuffled.AddNode(original.label(k), new_index[node]);
      queue.push_back(k);
    }
  }
  EXPECT_EQ(original.CanonicalCode(), shuffled.CanonicalCode())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigCanonicalProperty, testing::Range(0, 50));

// Reference unordered-tree isomorphism by recursive multiset comparison,
// used to validate that canonical codes are a *complete* invariant: equal
// codes <=> isomorphic twigs.
bool Isomorphic(const Twig& a, int ra, const Twig& b, int rb) {
  if (a.label(ra) != b.label(rb)) return false;
  const auto& ka = a.children(ra);
  const auto& kb = b.children(rb);
  if (ka.size() != kb.size()) return false;
  std::vector<bool> used(kb.size(), false);
  // Backtracking match of child subtrees (twigs are tiny).
  std::function<bool(size_t)> match = [&](size_t i) {
    if (i == ka.size()) return true;
    for (size_t j = 0; j < kb.size(); ++j) {
      if (used[j]) continue;
      if (Isomorphic(a, ka[i], b, kb[j])) {
        used[j] = true;
        if (match(i + 1)) return true;
        used[j] = false;
      }
    }
    return false;
  };
  return match(0);
}

class TwigCodeCompleteness : public testing::TestWithParam<int> {};

TEST_P(TwigCodeCompleteness, EqualCodesIffIsomorphic) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 11);
  // Two random twigs over a tiny alphabet so collisions are plausible.
  auto random_twig = [&]() {
    Twig t;
    int n = 1 + static_cast<int>(rng.Uniform(5));
    t.AddNode(static_cast<LabelId>(rng.Uniform(2)), -1);
    for (int i = 1; i < n; ++i) {
      t.AddNode(static_cast<LabelId>(rng.Uniform(2)),
                static_cast<int>(rng.Uniform(static_cast<uint64_t>(i))));
    }
    return t;
  };
  for (int trial = 0; trial < 30; ++trial) {
    Twig a = random_twig();
    Twig b = random_twig();
    bool same_code = a.CanonicalCode() == b.CanonicalCode();
    bool isomorphic = a.size() == b.size() &&
                      Isomorphic(a, a.root(), b, b.root());
    EXPECT_EQ(same_code, isomorphic)
        << a.ToDebugString() << " vs " << b.ToDebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigCodeCompleteness, testing::Range(0, 30));

// Hostile canonical codes (fuzz regressions): nesting past the parser's
// depth cap and label ids past int32 must fail with a ParseError, not a
// stack overflow or signed-overflow UB.
TEST(TwigParseTest, RejectsHostileCanonicalCodes) {
  {
    // "0(0(0(...": 6000 levels, past the 4096 cap.
    std::string deep;
    for (int i = 0; i < 6000; ++i) deep += "0(";
    deep += "0";
    deep.append(6000, ')');
    auto twig = Twig::FromCanonicalCode(deep);
    ASSERT_FALSE(twig.ok());
    EXPECT_NE(twig.status().message().find("nesting deeper"),
              std::string::npos)
        << twig.status().message();
  }
  for (const char* code : {"99999999999999999999(1)", "2147483648"}) {
    auto twig = Twig::FromCanonicalCode(code);
    ASSERT_FALSE(twig.ok()) << code;
    EXPECT_NE(twig.status().message().find("out of range"),
              std::string::npos)
        << twig.status().message();
  }
  // The largest representable id is still accepted.
  auto max_id = Twig::FromCanonicalCode("2147483647");
  ASSERT_TRUE(max_id.ok()) << max_id.status().ToString();
  EXPECT_EQ(max_id->label(max_id->root()), 2147483647);
}

// The nesting cap is exact: a twig at the cap parses, one past it fails.
TEST(TwigParseTest, NestingDepthBoundary) {
  auto chain = [](int depth) {
    std::string code;
    for (int i = 0; i < depth; ++i) code += "0(";
    code += "0";
    code.append(static_cast<size_t>(depth), ')');
    return code;
  };
  auto at_cap = Twig::FromCanonicalCode(chain(4096));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->size(), 4097);
  EXPECT_FALSE(Twig::FromCanonicalCode(chain(4097)).ok());
}

}  // namespace
}  // namespace treelattice
