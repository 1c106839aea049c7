#include <set>
#include <string>

#include <gtest/gtest.h>

#include "leaf_pair_split.h"
#include "twig/decompose.h"
#include "util/rng.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Builds a random twig with `n` nodes over `labels` labels.
Twig RandomTwig(Rng& rng, int n, int labels) {
  Twig t;
  t.AddNode(static_cast<LabelId>(rng.Uniform(labels)), -1);
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i)));
    t.AddNode(static_cast<LabelId>(rng.Uniform(labels)), parent);
  }
  return t;
}

TEST(SplitByLeafPairTest, PathSplit) {
  LabelDict dict;
  Twig t = MustParse("a(b(c))", &dict);
  // Removable: root a (degree 1) and leaf c.
  auto pairs = ValidLeafPairs(t);
  ASSERT_EQ(pairs.size(), 1u);
  Result<RecursiveSplit> split =
      SplitByLeafPair(t, pairs[0].first, pairs[0].second);
  ASSERT_TRUE(split.ok());
  // T1 keeps the first node of the pair (a), T2 keeps c; overlap is b.
  std::set<std::string> got = {split->t1.ToString(dict),
                               split->t2.ToString(dict)};
  EXPECT_TRUE(got.count("a(b)"));
  EXPECT_TRUE(got.count("b(c)"));
  EXPECT_EQ(split->overlap.ToString(dict), "b");
}

TEST(SplitByLeafPairTest, StarSplit) {
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  auto pairs = ValidLeafPairs(t);
  ASSERT_EQ(pairs.size(), 1u);
  Result<RecursiveSplit> split =
      SplitByLeafPair(t, pairs[0].first, pairs[0].second);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->overlap.ToString(dict), "a");
  EXPECT_EQ(split->t1.size(), 2);
  EXPECT_EQ(split->t2.size(), 2);
}

TEST(SplitByLeafPairTest, RejectsBadInputs) {
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  EXPECT_FALSE(SplitByLeafPair(t, 1, 1).ok());  // u == v
  EXPECT_FALSE(SplitByLeafPair(t, 0, 1).ok());  // root not removable here
  Twig tiny = MustParse("a(b)", &dict);
  EXPECT_FALSE(SplitByLeafPair(tiny, 0, 1).ok());  // size < 3
}

TEST(ValidLeafPairsTest, NonEmptyForAllTwigsOfSize3Plus) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    int n = 3 + static_cast<int>(rng.Uniform(8));
    Twig t = RandomTwig(rng, n, 5);
    auto pairs = ValidLeafPairs(t);
    EXPECT_FALSE(pairs.empty()) << t.ToDebugString();
  }
}

TEST(ValidLeafPairsTest, SplitSizesAreConsistent) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    int n = 3 + static_cast<int>(rng.Uniform(8));
    Twig t = RandomTwig(rng, n, 4);
    for (auto [u, v] : ValidLeafPairs(t)) {
      Result<RecursiveSplit> split = SplitByLeafPair(t, u, v);
      ASSERT_TRUE(split.ok());
      EXPECT_EQ(split->t1.size(), n - 1);
      EXPECT_EQ(split->t2.size(), n - 1);
      EXPECT_EQ(split->overlap.size(), n - 2);
    }
  }
}

// ---------------------------------------------------------------------------
// Fixed-size cover (Lemma 2) properties.

TEST(FixedSizeCoverTest, RejectsBadArguments) {
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  EXPECT_FALSE(FixedSizeCover(t, 1).ok());
  EXPECT_FALSE(FixedSizeCover(t, 4).ok());  // k > size
}

TEST(FixedSizeCoverTest, ExactSizeYieldsSingleStep) {
  LabelDict dict;
  Twig t = MustParse("a(b,c)", &dict);
  auto steps = FixedSizeCover(t, 3);
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 1u);
  EXPECT_EQ((*steps)[0].subtree.CanonicalCode(), t.CanonicalCode());
}

TEST(FixedSizeCoverTest, PaperExampleStepCount) {
  LabelDict dict;
  // Figure 3(b): 7-node twig covered by 4-subtrees -> 4 steps.
  Twig t = MustParse("a(b(c,d(f(e,g))))", &dict);
  ASSERT_EQ(t.size(), 7);
  auto steps = FixedSizeCover(t, 4);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(steps->size(), 4u);  // n - k + 1
}

class FixedSizeCoverProperty : public testing::TestWithParam<int> {};

TEST_P(FixedSizeCoverProperty, Lemma2Invariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  int n = 4 + static_cast<int>(rng.Uniform(7));   // 4..10 nodes
  int k = 2 + static_cast<int>(rng.Uniform(3));   // 2..4
  if (k > n) k = n;
  Twig t = RandomTwig(rng, n, 4);

  auto result = FixedSizeCover(t, k);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& steps = *result;

  // Lemma 2: exactly n - k + 1 subtrees.
  EXPECT_EQ(steps.size(), static_cast<size_t>(n - k + 1));
  // First step has no overlap; all subtrees have k nodes; all overlaps have
  // k - 1 nodes and are sub-twigs of their step's subtree.
  EXPECT_TRUE(steps[0].overlap.empty());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].subtree.size(), k);
    if (i > 0) {
      EXPECT_EQ(steps[i].overlap.size(), k - 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedSizeCoverProperty, testing::Range(0, 60));

}  // namespace
}  // namespace treelattice
