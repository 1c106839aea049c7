#include <string>

#include <gtest/gtest.h>

#include "automorphisms.h"
#include "datagen/datasets.h"
#include "datagen/random_tree.h"
#include "freqt_builder.h"
#include "mining/lattice_builder.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(AutomorphismTest, KnownValues) {
  LabelDict dict;
  EXPECT_EQ(CountAutomorphisms(MustParse("a", &dict)), 1u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b)", &dict)), 1u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b,c)", &dict)), 1u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b,b)", &dict)), 2u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b,b,b)", &dict)), 6u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b(c),b)", &dict)), 1u);
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b(c),b(c))", &dict)), 2u);
  // Nested: two identical b(c,c) children -> 2! * (2! per child) = 8.
  EXPECT_EQ(CountAutomorphisms(MustParse("a(b(c,c),b(c,c))", &dict)), 8u);
  Twig empty;
  EXPECT_EQ(CountAutomorphisms(empty), 1u);
}

TEST(AutomorphismTest, OrderedVariants) {
  LabelDict dict;
  EXPECT_EQ(CountOrderedVariants(MustParse("a", &dict)), 1u);
  EXPECT_EQ(CountOrderedVariants(MustParse("a(b,c)", &dict)), 2u);
  EXPECT_EQ(CountOrderedVariants(MustParse("a(b,b)", &dict)), 1u);
  EXPECT_EQ(CountOrderedVariants(MustParse("a(b,b,c)", &dict)), 3u);
  // variants * automorphisms == product of fanout factorials.
  Twig t = MustParse("a(b(c,c),b(c,d))", &dict);
  EXPECT_EQ(CountOrderedVariants(t) * CountAutomorphisms(t),
            2u * 2u * 2u);  // root 2!, each b 2!
}

TEST(AutomorphismTest, CollectSubtreeNodes) {
  LabelDict dict;
  Twig t = MustParse("a(b(c),d)", &dict);
  auto nodes = CollectSubtreeNodes(t, 1);  // subtree at b
  EXPECT_EQ(nodes.size(), 2u);
  auto all = CollectSubtreeNodes(t, t.root());
  EXPECT_EQ(all.size(), 4u);
}

void ExpectSummariesEqual(const LatticeSummary& a, const LatticeSummary& b) {
  ASSERT_EQ(a.NumPatterns(), b.NumPatterns());
  for (int level = 1; level <= a.max_level(); ++level) {
    ASSERT_EQ(a.NumPatterns(level), b.NumPatterns(level)) << level;
    for (const std::string& code : a.PatternsAtLevel(level)) {
      auto other = b.LookupCode(code);
      ASSERT_TRUE(other.has_value()) << code;
      EXPECT_EQ(*a.LookupCode(code), *other) << code;
    }
  }
}

TEST(FreqtBuilderTest, TinyDocumentMatchesDirectBuilder) {
  auto doc = ParseXmlString("<a><b><c/></b><b/><b><c/><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  LatticeBuildOptions options;
  options.max_level = 4;
  auto direct = BuildLattice(*doc, options);
  FreqtBuildStats stats;
  auto freqt = BuildLatticeFreqt(*doc, options, &stats);
  ASSERT_TRUE(direct.ok() && freqt.ok()) << freqt.status().ToString();
  ExpectSummariesEqual(*direct, *freqt);
  EXPECT_GT(stats.ordered_patterns, direct->NumPatterns());
  EXPECT_EQ(freqt->complete_through_level(), 4);
}

TEST(FreqtBuilderTest, EmptyAndDegenerate) {
  Document empty;
  auto summary = BuildLatticeFreqt(empty, LatticeBuildOptions());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->NumPatterns(), 0u);

  Document single;
  single.AddNode("x", kInvalidNode);
  summary = BuildLatticeFreqt(single, LatticeBuildOptions());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->NumPatterns(), 1u);

  LatticeBuildOptions bad;
  bad.max_level = 1;
  EXPECT_FALSE(BuildLatticeFreqt(single, bad).ok());
}

class FreqtEquivalence : public testing::TestWithParam<int> {};

TEST_P(FreqtEquivalence, MatchesDirectBuilderOnRandomTrees) {
  RandomTreeOptions tree;
  tree.seed = static_cast<uint64_t>(GetParam()) * 131 + 17;
  tree.num_nodes = 150;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeBuildOptions options;
  options.max_level = 4;
  auto direct = BuildLattice(doc, options);
  auto freqt = BuildLatticeFreqt(doc, options);
  ASSERT_TRUE(direct.ok() && freqt.ok());
  ExpectSummariesEqual(*direct, *freqt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreqtEquivalence, testing::Range(0, 15));

TEST(FreqtBuilderTest, MatchesDirectBuilderOnDatasetSample) {
  DatasetOptions generate;
  generate.scale = 60;
  Document doc = GeneratePsd(generate);
  LatticeBuildOptions options;
  options.max_level = 4;
  auto direct = BuildLattice(doc, options);
  auto freqt = BuildLatticeFreqt(doc, options);
  ASSERT_TRUE(direct.ok() && freqt.ok());
  ExpectSummariesEqual(*direct, *freqt);
}

}  // namespace
}  // namespace treelattice
