#include <set>
#include <string>

#include <gtest/gtest.h>

#include "datagen/random_tree.h"
#include "io/env.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "summary/summary_format.h"
#include "temp_path.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(LatticeBuilderTest, TinyDocumentAllLevels) {
  auto doc = ParseXmlString("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeBuildOptions options;
  options.max_level = 4;
  LatticeBuildStats stats;
  auto summary = BuildLattice(*doc, options, &stats);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  // Level 1: a, b, c.
  EXPECT_EQ(summary->NumPatterns(1), 3u);
  EXPECT_EQ(*summary->Lookup(MustParse("a", dict)), 1u);
  EXPECT_EQ(*summary->Lookup(MustParse("b", dict)), 2u);
  // Level 2: a(b), b(c).
  EXPECT_EQ(summary->NumPatterns(2), 2u);
  EXPECT_EQ(*summary->Lookup(MustParse("a(b)", dict)), 2u);
  // Level 3: a(b,b), a(b(c)), and nothing else.
  EXPECT_EQ(*summary->Lookup(MustParse("a(b,b)", dict)), 2u);
  EXPECT_EQ(*summary->Lookup(MustParse("a(b(c))", dict)), 1u);
  EXPECT_EQ(summary->NumPatterns(3), 2u);
  // Level 4: a(b(c),b) only (a(b,b) extended by c, dedup across orders).
  // One match: the c-bearing b must take the c role.
  EXPECT_EQ(summary->NumPatterns(4), 1u);
  EXPECT_EQ(*summary->Lookup(MustParse("a(b(c),b)", dict)), 1u);

  EXPECT_EQ(summary->complete_through_level(), 4);
  EXPECT_EQ(stats.patterns_per_level[1], 3u);
  EXPECT_EQ(stats.patterns_per_level[4], 1u);
  EXPECT_GT(stats.candidates_generated, 0u);
}

TEST(LatticeBuilderTest, EveryStoredCountIsExact) {
  RandomTreeOptions tree;
  tree.seed = 5;
  tree.num_nodes = 200;
  tree.num_labels = 5;
  Document doc = GenerateRandomTree(tree);
  LatticeBuildOptions options;
  options.max_level = 4;
  auto summary = BuildLattice(doc, options);
  ASSERT_TRUE(summary.ok());

  MatchCounter counter(doc);
  size_t checked = 0;
  for (int level = 1; level <= 4; ++level) {
    for (const std::string& code : summary->PatternsAtLevel(level)) {
      Result<Twig> twig = Twig::FromCanonicalCode(code);
      ASSERT_TRUE(twig.ok());
      EXPECT_EQ(counter.Count(*twig), *summary->LookupCode(code))
          << "pattern " << code;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(LatticeBuilderTest, CompletenessNoOccurringPatternMissed) {
  // Exhaustively verify at level <= 3 on a small random document: every
  // distinct occurring 1/2/3-subtree pattern is present in the summary.
  RandomTreeOptions tree;
  tree.seed = 11;
  tree.num_nodes = 60;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeBuildOptions options;
  options.max_level = 3;
  auto summary = BuildLattice(doc, options);
  ASSERT_TRUE(summary.ok());

  // Enumerate document-embedded patterns directly: every connected node set
  // of size <= 3. Sets: single nodes, (parent,child), (grandparent chains)
  // and sibling pairs.
  std::set<std::string> expected;
  for (NodeId v = 0; v < static_cast<NodeId>(doc.NumNodes()); ++v) {
    Twig single;
    single.AddNode(doc.Label(v), -1);
    expected.insert(single.CanonicalCode());
  }
  size_t found_level1 = 0;
  for (const std::string& code : summary->PatternsAtLevel(1)) {
    EXPECT_TRUE(expected.count(code)) << code;
    ++found_level1;
  }
  EXPECT_EQ(found_level1, expected.size());

  // Spot-check level 2/3 patterns by recounting.
  MatchCounter counter(doc);
  for (int level = 2; level <= 3; ++level) {
    for (const std::string& code : summary->PatternsAtLevel(level)) {
      Result<Twig> twig = Twig::FromCanonicalCode(code);
      ASSERT_TRUE(twig.ok());
      EXPECT_GT(counter.Count(*twig), 0u);
    }
  }
}

TEST(LatticeBuilderTest, AprioriOffMatchesAprioriOn) {
  RandomTreeOptions tree;
  tree.seed = 23;
  tree.num_nodes = 120;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);

  LatticeBuildOptions with;
  with.max_level = 4;
  with.apriori_prune = true;
  LatticeBuildOptions without = with;
  without.apriori_prune = false;

  auto a = BuildLattice(doc, with);
  auto b = BuildLattice(doc, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->NumPatterns(), b->NumPatterns());
  for (int level = 1; level <= 4; ++level) {
    for (const std::string& code : a->PatternsAtLevel(level)) {
      EXPECT_EQ(a->LookupCode(code), b->LookupCode(code));
    }
  }
}

TEST(LatticeBuilderTest, EmptyDocument) {
  Document doc;
  auto summary = BuildLattice(doc);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->NumPatterns(), 0u);
  EXPECT_EQ(summary->complete_through_level(), 4);
}

TEST(LatticeBuilderTest, RejectsBadMaxLevel) {
  Document doc;
  LatticeBuildOptions options;
  options.max_level = 1;
  EXPECT_FALSE(BuildLattice(doc, options).ok());
}

TEST(LatticeBuilderTest, PatternCapMarksIncomplete) {
  RandomTreeOptions tree;
  tree.seed = 31;
  tree.num_nodes = 150;
  tree.num_labels = 6;
  Document doc = GenerateRandomTree(tree);
  LatticeBuildOptions options;
  options.max_level = 4;
  options.max_patterns_per_level = 3;
  auto summary = BuildLattice(doc, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_LT(summary->complete_through_level(), 4);
}

/// The bytes SaveSummaryV2 writes for `summary`.
std::string SavedBytes(const LatticeSummary& summary, const LabelDict& dict) {
  const std::string path = UniqueTempPath("lattice.summary");
  EXPECT_TRUE(SaveSummaryV2(summary, &dict, Env::Default(), path).ok());
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(Env::Default(), path, &bytes).ok());
  EXPECT_TRUE(Env::Default()->DeleteFile(path).ok());
  return bytes;
}

TEST(LatticeBuilderTest, ParallelCountingMatchesSequential) {
  RandomTreeOptions tree;
  tree.seed = 47;
  tree.num_nodes = 400;
  tree.num_labels = 6;
  Document doc = GenerateRandomTree(tree);

  LatticeBuildOptions sequential;
  sequential.max_level = 4;
  sequential.num_threads = 1;
  auto a = BuildLattice(doc, sequential);
  ASSERT_TRUE(a.ok());
  const std::string a_bytes = SavedBytes(*a, doc.dict());
  for (int threads : {2, 4, 8}) {
    LatticeBuildOptions parallel = sequential;
    parallel.num_threads = threads;
    auto b = BuildLattice(doc, parallel);
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->NumPatterns(), b->NumPatterns()) << threads << " threads";
    for (int level = 1; level <= 4; ++level) {
      ASSERT_EQ(a->NumPatterns(level), b->NumPatterns(level));
      for (const std::string& code : a->PatternsAtLevel(level)) {
        EXPECT_EQ(a->LookupCode(code), b->LookupCode(code)) << code;
      }
    }
    EXPECT_EQ(a->complete_through_level(), b->complete_through_level());
    EXPECT_EQ(SavedBytes(*b, doc.dict()), a_bytes) << threads << " threads";
  }
}

TEST(LatticeBuilderTest, SingleNodeDocument) {
  Document doc;
  doc.AddNode("only", kInvalidNode);
  auto summary = BuildLattice(doc);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->NumPatterns(1), 1u);
  EXPECT_EQ(summary->NumPatterns(), 1u);
  EXPECT_EQ(summary->complete_through_level(), 4);
}

}  // namespace
}  // namespace treelattice
