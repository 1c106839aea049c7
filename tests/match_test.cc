#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/random_tree.h"
#include "match/brute_force.h"
#include "match/matcher.h"
#include "util/rng.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The paper's Figure 1 document: two laptops with brand+price under
/// computer/laptops, plus an empty desktops branch.
Document PaperFigure1Document() {
  auto doc = ParseXmlString(
      "<computer>"
      "  <laptops>"
      "    <laptop><brand/><price/></laptop>"
      "    <laptop><brand/><price/></laptop>"
      "  </laptops>"
      "  <desktops/>"
      "</computer>");
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

TEST(MatchCounterTest, PaperFigure1TwigHasTwoMatches) {
  Document doc = PaperFigure1Document();
  LabelDict* dict = &doc.mutable_dict();
  MatchCounter counter(doc);
  Twig query = MustParse("laptop(brand,price)", dict);
  EXPECT_EQ(counter.Count(query), 2u);
}

TEST(MatchCounterTest, SingleNodeCountsLabelOccurrences) {
  Document doc = PaperFigure1Document();
  LabelDict* dict = &doc.mutable_dict();
  MatchCounter counter(doc);
  EXPECT_EQ(counter.Count(MustParse("laptop", dict)), 2u);
  EXPECT_EQ(counter.Count(MustParse("computer", dict)), 1u);
  EXPECT_EQ(counter.Count(MustParse("brand", dict)), 2u);
}

TEST(MatchCounterTest, MissingLabelGivesZero) {
  Document doc = PaperFigure1Document();
  LabelDict* dict = &doc.mutable_dict();
  MatchCounter counter(doc);
  EXPECT_EQ(counter.Count(MustParse("tablet", dict)), 0u);
  EXPECT_EQ(counter.Count(MustParse("computer(tablet)", dict)), 0u);
}

TEST(MatchCounterTest, StructureMattersNotJustLabels) {
  Document doc = PaperFigure1Document();
  LabelDict* dict = &doc.mutable_dict();
  MatchCounter counter(doc);
  // brand under computer directly: no match.
  EXPECT_EQ(counter.Count(MustParse("computer(brand)", dict)), 0u);
  // deep chain: one per laptop.
  EXPECT_EQ(counter.Count(MustParse("computer(laptops(laptop(price)))", dict)),
            2u);
}

TEST(MatchCounterTest, DuplicateSiblingLabelsAreInjective) {
  auto doc = ParseXmlString("<a><b/><b/><b/></a>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  MatchCounter counter(*doc);
  // Ordered pairs of distinct b's: 3 * 2 = 6.
  EXPECT_EQ(counter.Count(MustParse("a(b,b)", dict)), 6u);
  // Triples: 3! = 6.
  EXPECT_EQ(counter.Count(MustParse("a(b,b,b)", dict)), 6u);
  // More query children than document children: 0.
  EXPECT_EQ(counter.Count(MustParse("a(b,b,b,b)", dict)), 0u);
}

TEST(MatchCounterTest, WideNodeWithOneRepeatedLabelCountsItsGroupAlone) {
  // a(b,b,c0,c1,...): only the two b's compete, so the count is 2 however
  // many distinct-label children there are. An assignment over all the
  // children took seconds at 24 of them and gave up (0) past 30.
  for (int width : {24, 31, 64}) {
    std::string xml = "<a><b/><b/>";
    std::string query = "a(b,b";
    for (int i = 2; i < width; ++i) {
      xml += "<c" + std::to_string(i) + "/>";
      query += ",c" + std::to_string(i);
    }
    xml += "</a>";
    query += ")";
    auto doc = ParseXmlString(xml);
    ASSERT_TRUE(doc.ok());
    MatchCounter counter(*doc);
    EXPECT_EQ(counter.Count(MustParse(query, &doc->mutable_dict())), 2u)
        << width << " children";
  }
}

TEST(MatchCounterTest, EmptyQueryAndEmptyDocument) {
  Document empty;
  MatchCounter counter(empty);
  Twig t;
  EXPECT_EQ(counter.Count(t), 0u);

  Document doc = PaperFigure1Document();
  MatchCounter counter2(doc);
  EXPECT_EQ(counter2.Count(t), 0u);
}

TEST(MatchCounterTest, CountRootedAtTakesRootsAndANodeLimit) {
  // Preorder ids: r=0, a=1, b=2, a=3, b=4, b=5, c=6.
  auto doc = ParseXmlString("<r><a><b/></a><a><b/><b/></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  Twig query = MustParse("a(b)", &doc->mutable_dict());
  EXPECT_EQ(MatchCounter(*doc).Count(query), 3u);
  const NodeId all = static_cast<NodeId>(doc->NumNodes());
  const std::vector<NodeId> anchors = {1, 3};
  const std::vector<NodeId> second = {3};
  const std::vector<NodeId> other_labels = {0, 6};
  EXPECT_EQ(MatchCounter::CountRootedAt(*doc, query, anchors, all), 3u);
  EXPECT_EQ(MatchCounter::CountRootedAt(*doc, query, second, all), 2u);
  // Roots of another label add nothing.
  EXPECT_EQ(MatchCounter::CountRootedAt(*doc, query, other_labels, all), 0u);
  // Nodes at or past the limit are absent, as roots and as children.
  EXPECT_EQ(MatchCounter::CountRootedAt(*doc, query, anchors, 5), 2u);
  EXPECT_EQ(MatchCounter::CountRootedAt(*doc, query, anchors, 3), 1u);
}

TEST(MatchCounterTest, PathQueryAtTheParserNestingLimit) {
  // The counter recurses once per query level, so a path query at the
  // twig parser's nesting limit (4,096 levels) must count without
  // exhausting the stack; the address-sanitizer build has the largest
  // frames. It fits a 5,000-node path at 5000 - 4096 + 1 places.
  Document doc;
  NodeId parent = kInvalidNode;
  for (int i = 0; i < 5000; ++i) parent = doc.AddNode("a", parent);
  std::string text;
  for (int i = 0; i < 4096; ++i) text += i == 0 ? "a" : "(a";
  text += std::string(4095, ')');
  Twig query = MustParse(text, &doc.mutable_dict());
  ASSERT_EQ(query.size(), 4096);
  EXPECT_EQ(MatchCounter(doc).Count(query), 905u);
}

TEST(MatchCounterTest, MatchesAgreeWithBruteForceOnFixedExamples) {
  auto doc = ParseXmlString(
      "<r><a><b/><c><b/></c></a><a><c/><c><b/><b/></c></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  MatchCounter counter(*doc);
  for (const char* q :
       {"r", "a", "b", "c", "a(b)", "a(c)", "a(c(b))", "c(b,b)", "r(a,a)",
        "a(b,c)", "a(c,c)", "r(a(c(b)))", "r(a(b),a(c))", "a(c(b),c)",
        "a(c,c(b),b)", "r(a(c),a)"}) {
    Twig query = MustParse(q, dict);
    EXPECT_EQ(counter.Count(query), BruteForceCount(*doc, query))
        << "query " << q;
  }
}

TEST(SaturatingArithmeticTest, Saturates) {
  const uint64_t big = ~uint64_t{0};
  EXPECT_EQ(SaturatingMul(big, 2), big);
  EXPECT_EQ(SaturatingAdd(big, 1), big);
  EXPECT_EQ(SaturatingMul(3, 4), 12u);
  EXPECT_EQ(SaturatingMul(0, big), 0u);
  EXPECT_EQ(SaturatingAdd(3, 4), 7u);
}

// Property sweep: the DP counter agrees with brute-force enumeration on
// random documents and random query twigs, including duplicate labels.
class MatcherVsBruteForce : public testing::TestWithParam<int> {};

TEST_P(MatcherVsBruteForce, Agree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions doc_options;
  doc_options.seed = seed;
  doc_options.num_nodes = 40;
  doc_options.num_labels = 3;  // few labels => many duplicate-label cases
  doc_options.max_fanout = 3;
  doc_options.max_depth = 5;
  Document doc = GenerateRandomTree(doc_options);
  MatchCounter counter(doc);

  Rng rng(seed * 7919 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 1 + static_cast<int>(rng.Uniform(5));
    Twig query;
    query.AddNode(static_cast<LabelId>(rng.Uniform(3)), -1);
    for (int i = 1; i < n; ++i) {
      query.AddNode(static_cast<LabelId>(rng.Uniform(3)),
                    static_cast<int>(rng.Uniform(static_cast<uint64_t>(i))));
    }
    EXPECT_EQ(counter.Count(query), BruteForceCount(doc, query))
        << "seed " << seed << " query " << query.ToDebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherVsBruteForce, testing::Range(0, 40));

}  // namespace
}  // namespace treelattice
