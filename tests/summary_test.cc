#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "summary/lattice_summary.h"
#include "temp_path.h"
#include "util/hash.h"

#include <vector>

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(LatticeSummaryTest, InsertAndLookup) {
  LabelDict dict;
  LatticeSummary summary(4);
  Twig t = MustParse("a(b,c)", &dict);
  ASSERT_TRUE(summary.Insert(t, 42).ok());
  auto count = summary.Lookup(t);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 42u);
}

TEST(LatticeSummaryTest, LookupIsOrderInsensitive) {
  LabelDict dict;
  LatticeSummary summary(4);
  ASSERT_TRUE(summary.Insert(MustParse("a(b,c)", &dict), 7).ok());
  auto count = summary.Lookup(MustParse("a(c,b)", &dict));
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 7u);
}

TEST(LatticeSummaryTest, MissingLookup) {
  LabelDict dict;
  LatticeSummary summary(4);
  EXPECT_FALSE(summary.Lookup(MustParse("a", &dict)).has_value());
  EXPECT_FALSE(summary.LookupCode("0(1)").has_value());
}

TEST(LatticeSummaryTest, InsertValidation) {
  LabelDict dict;
  LatticeSummary summary(3);
  Twig too_big = MustParse("a(b(c(d)))", &dict);
  EXPECT_FALSE(summary.Insert(too_big, 1).ok());
  Twig empty;
  EXPECT_FALSE(summary.Insert(empty, 1).ok());
  EXPECT_FALSE(summary.Insert(MustParse("a", &dict), 0).ok());
}

TEST(LatticeSummaryTest, InsertOverwrites) {
  LabelDict dict;
  LatticeSummary summary(4);
  Twig t = MustParse("a", &dict);
  ASSERT_TRUE(summary.Insert(t, 1).ok());
  ASSERT_TRUE(summary.Insert(t, 2).ok());
  EXPECT_EQ(*summary.Lookup(t), 2u);
  EXPECT_EQ(summary.NumPatterns(), 1u);
}

TEST(LatticeSummaryTest, LevelsTrackSizes) {
  LabelDict dict;
  LatticeSummary summary(4);
  ASSERT_TRUE(summary.Insert(MustParse("a", &dict), 5).ok());
  ASSERT_TRUE(summary.Insert(MustParse("b", &dict), 3).ok());
  ASSERT_TRUE(summary.Insert(MustParse("a(b)", &dict), 2).ok());
  ASSERT_TRUE(summary.Insert(MustParse("a(b,b)", &dict), 1).ok());
  EXPECT_EQ(summary.NumPatterns(1), 2u);
  EXPECT_EQ(summary.NumPatterns(2), 1u);
  EXPECT_EQ(summary.NumPatterns(3), 1u);
  EXPECT_EQ(summary.NumPatterns(4), 0u);
  EXPECT_EQ(summary.NumPatterns(), 4u);
  EXPECT_TRUE(summary.PatternsAtLevel(99).empty());
}

TEST(LatticeSummaryTest, MemoryBytesTracksInsertions) {
  LabelDict dict;
  LatticeSummary summary(4);
  EXPECT_EQ(summary.MemoryBytes(), 0u);
  ASSERT_TRUE(summary.Insert(MustParse("a", &dict), 5).ok());
  size_t one = summary.MemoryBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(summary.Insert(MustParse("a(b)", &dict), 5).ok());
  EXPECT_GT(summary.MemoryBytes(), one);
}

TEST(LatticeSummaryTest, SaveLoadRoundTrip) {
  LabelDict dict;
  LatticeSummary summary(4);
  ASSERT_TRUE(summary.Insert(MustParse("a", &dict), 10).ok());
  ASSERT_TRUE(summary.Insert(MustParse("a(b)", &dict), 6).ok());
  ASSERT_TRUE(summary.Insert(MustParse("a(b,c(d))", &dict), 2).ok());
  summary.set_complete_through_level(3);

  const ScopedTempPath path_file("tl_summary_test.txt");

  const std::string& path = path_file.path();
  ASSERT_TRUE(summary.SaveToFile(path).ok());
  Result<LatticeSummary> loaded = LatticeSummary::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->max_level(), 4);
  EXPECT_EQ(loaded->complete_through_level(), 3);
  EXPECT_EQ(loaded->NumPatterns(), 3u);
  EXPECT_EQ(*loaded->Lookup(MustParse("a(b,c(d))", &dict)), 2u);
  EXPECT_EQ(loaded->MemoryBytes(), summary.MemoryBytes());
}

TEST(LatticeSummaryTest, LoadRejectsGarbage) {
  const ScopedTempPath path_file("tl_summary_bad.txt");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "NOT A SUMMARY\n";
  }
  auto result = LatticeSummary::LoadFromFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(LatticeSummary::LoadFromFile("/nonexistent/summary").ok());
}

TEST(LatticeSummaryTest, MinimumMaxLevelIsTwo) {
  LatticeSummary summary(0);
  EXPECT_EQ(summary.max_level(), 2);
}

TEST(LatticeSummaryTest, FlatTableSurvivesGrowthAndChurn) {
  // Many inserts force repeated slot-table rehashes; every pattern must
  // stay findable by twig, by code, and by precomputed hash afterwards,
  // and overwriting churn must update counts in place without adding
  // entries.
  LatticeSummary summary(4);
  std::vector<Twig> twigs;
  for (int i = 0; i < 500; ++i) {
    Twig t;
    int root = t.AddNode(i, -1);
    t.AddNode(i + 1000, root);
    t.AddNode(i + 2000, root);
    ASSERT_TRUE(summary.Insert(t, static_cast<uint64_t>(i) + 1).ok());
    twigs.push_back(std::move(t));
  }
  ASSERT_EQ(summary.NumPatterns(), 500u);
  for (int i = 0; i < 500; ++i) {
    const std::string& code = twigs[static_cast<size_t>(i)].CanonicalCode();
    const uint64_t want = static_cast<uint64_t>(i) + 1;
    ASSERT_EQ(summary.LookupCode(code), std::optional<uint64_t>(want));
    ASSERT_EQ(summary.LookupHashed(HashBytes(code), code),
              std::optional<uint64_t>(want));
  }

  // Overwrite every other pattern, then verify every count.
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(summary.Insert(twigs[static_cast<size_t>(i)], 777).ok());
  }
  EXPECT_EQ(summary.NumPatterns(), 500u);
  EXPECT_EQ(summary.NumPatterns(3), 500u);
  for (int i = 0; i < 500; ++i) {
    const uint64_t want =
        i % 2 == 0 ? uint64_t{777} : static_cast<uint64_t>(i) + 1;
    EXPECT_EQ(summary.Lookup(twigs[static_cast<size_t>(i)]),
              std::optional<uint64_t>(want));
  }
}

TEST(LatticeSummaryTest, LookupHashedRequiresMatchingCode) {
  // A colliding hash with a different code must miss (the stored code is
  // always verified), never return another pattern's count.
  LatticeSummary summary(2);
  Twig t;
  int root = t.AddNode(0, -1);
  t.AddNode(1, root);
  ASSERT_TRUE(summary.Insert(t, 9).ok());
  const std::string code = t.CanonicalCode();
  const std::string other = "0(2)";
  EXPECT_FALSE(summary.LookupHashed(HashBytes(code), other).has_value());
  EXPECT_EQ(summary.LookupHashed(HashBytes(code), code),
            std::optional<uint64_t>(9));
}

}  // namespace
}  // namespace treelattice
