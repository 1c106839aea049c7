#include <string>

#include <gtest/gtest.h>

#include "core/recursive_estimator.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "xml/parser.h"
#include "xpath/xpath.h"

namespace treelattice {
namespace {

TEST(XPathTest, SimplePath) {
  LabelDict dict;
  auto twig = CompileXPath("/a/b/c", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->size(), 3);
  EXPECT_TRUE(twig->IsPath());
  EXPECT_EQ(twig->ToString(dict), "a(b(c))");
}

TEST(XPathTest, RelativePathEqualsAbsolute) {
  LabelDict dict;
  auto absolute = CompileXPath("/a/b", &dict);
  auto relative = CompileXPath("a/b", &dict);
  ASSERT_TRUE(absolute.ok() && relative.ok());
  EXPECT_EQ(absolute->CanonicalCode(), relative->CanonicalCode());
}

TEST(XPathTest, Predicates) {
  LabelDict dict;
  auto twig = CompileXPath("laptop[brand][price]", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->ToString(dict), "laptop(brand,price)");
}

TEST(XPathTest, PredicateWithPath) {
  LabelDict dict;
  auto twig =
      CompileXPath("/site/open_auctions/open_auction[bidder/time][seller]",
                   &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->size(), 6);
  EXPECT_EQ(twig->ToString(dict),
            "site(open_auctions(open_auction(bidder(time),seller)))");
}

TEST(XPathTest, NestedPredicates) {
  LabelDict dict;
  auto twig = CompileXPath("a/b[c[d]/e]", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->ToString(dict), "a(b(c(d,e)))");
}

TEST(XPathTest, PathContinuesAfterPredicate) {
  LabelDict dict;
  auto twig = CompileXPath("a[x]/b", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->ToString(dict), "a(x,b)");
}

TEST(XPathTest, WhitespaceTolerated) {
  LabelDict dict;
  auto twig = CompileXPath("  a [ b ] / c ", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->size(), 3);
}

TEST(XPathTest, RejectsUnsupportedConstructs) {
  LabelDict dict;
  EXPECT_FALSE(CompileXPath("//a", &dict).ok());
  EXPECT_FALSE(CompileXPath("a//b", &dict).ok());
  EXPECT_FALSE(CompileXPath("a/*", &dict).ok());
  EXPECT_FALSE(CompileXPath("a[@id]", &dict).ok());
  EXPECT_FALSE(CompileXPath("a[1]", &dict).ok());
  EXPECT_FALSE(CompileXPath("", &dict).ok());
  EXPECT_FALSE(CompileXPath("   ", &dict).ok());
  EXPECT_FALSE(CompileXPath("a[b", &dict).ok());
  EXPECT_FALSE(CompileXPath("a]b", &dict).ok());
  EXPECT_FALSE(CompileXPath("a/", &dict).ok());
  EXPECT_FALSE(CompileXPath("/a/b/c extra", &dict).ok());
  EXPECT_FALSE(CompileXPath("a", nullptr).ok());
}

TEST(XPathTest, CompiledQueryCountsCorrectly) {
  auto doc = ParseXmlString(
      "<computer><laptops>"
      "<laptop><brand/><price/></laptop>"
      "<laptop><brand/><price/></laptop>"
      "</laptops><desktops/></computer>");
  ASSERT_TRUE(doc.ok());
  MatchCounter counter(*doc);
  auto twig = CompileXPath("laptop[brand][price]", &doc->mutable_dict());
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(counter.Count(*twig), 2u);
}

TEST(XPathTest, RoundTripThroughTwigToXPath) {
  LabelDict dict;
  for (const char* text :
       {"/a/b/c", "/laptop[brand][price]", "/a/b[c[d]/e]",
        "/site/open_auctions/open_auction[bidder/time][seller]"}) {
    auto twig = CompileXPath(text, &dict);
    ASSERT_TRUE(twig.ok()) << text;
    std::string rendered = TwigToXPath(*twig, dict);
    auto reparsed = CompileXPath(rendered, &dict);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(reparsed->CanonicalCode(), twig->CanonicalCode())
        << text << " -> " << rendered;
  }
  Twig empty;
  EXPECT_EQ(TwigToXPath(empty, dict), "");
}

// Malformed queries must come back as a diagnostic Status — never a
// crash, hang, or silently wrong twig. The table mirrors the seed corpus
// in tests/corpus/xpath/ that the fuzz harness replays.
TEST(XPathTest, MalformedQueriesRejectedWithDiagnostic) {
  struct Case {
    const char* name;
    std::string input;
    const char* want_message_fragment;
  };
  const Case kCases[] = {
      {"empty", "", "empty"},
      {"whitespace_only", "  \t ", "empty"},
      {"slash_only", "/", "expected element name"},
      {"trailing_slash", "a/b/", "expected element name"},
      {"empty_step", "a//b", "descendant axis"},
      {"leading_descendant", "//a", "descendant axis"},
      {"unbalanced_open", "a[b[c]", "unterminated predicate"},
      {"unbalanced_close", "a]b", "trailing characters"},
      {"empty_predicate", "a[]", "expected element name"},
      {"wildcard", "/a/*", "wildcard"},
      {"attribute_axis", "a[@id]", "attribute axis"},
      {"positional_predicate", "a[1]", "positional"},
      {"unterminated_literal", "a[.=\"x", "unterminated string literal"},
      {"bare_dot_predicate", "a[.]", "expected '='"},
      {"unquoted_literal", "a[.=x]", "expected quoted literal"},
      {"garbage_after_path", "a/b c", "trailing characters"},
      {"oversized_predicate_depth",
       // 300 nested predicates, past the compiler's cap of 128.
       [] {
         std::string q = "a";
         for (int i = 0; i < 300; ++i) q += "[a";
         q.append(300, ']');
         return q;
       }(),
       "nested deeper"},
  };
  for (const Case& c : kCases) {
    LabelDict dict;
    auto twig = CompileXPath(c.input, &dict);
    ASSERT_FALSE(twig.ok()) << c.name << ": accepted " << c.input;
    EXPECT_NE(twig.status().message().find(c.want_message_fragment),
              std::string::npos)
        << c.name << ": diagnostic was '" << twig.status().message() << "'";
  }
}

// Depths at and around the predicate-nesting cap: the boundary must be
// exact — the cap rejects hostile inputs, not legitimate deep queries.
TEST(XPathTest, PredicateDepthBoundary) {
  auto nested = [](int depth) {
    std::string q = "a";
    for (int i = 0; i < depth; ++i) q += "[a";
    q.append(static_cast<size_t>(depth), ']');
    return q;
  };
  {
    LabelDict dict;
    auto at_cap = CompileXPath(nested(128), &dict);
    EXPECT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  }
  {
    LabelDict dict;
    auto past_cap = CompileXPath(nested(129), &dict);
    EXPECT_FALSE(past_cap.ok());
  }
}

// A long path spine is not recursion in the renderer: it renders 5,000
// steps (regression: RenderNode used to recurse per step). Compiling
// 5,000 steps is refused, since the spine is deeper than Twig::kMaxDepth.
TEST(XPathTest, LongPathSpineCompilesAndRenders) {
  LabelDict dict;
  const LabelId a = dict.Intern("a");
  Twig path;
  path.AddNode(a, -1);
  for (int i = 1; i < 5000; ++i) path.AddNode(a, i - 1);
  std::string q;
  for (int i = 0; i < 5000; ++i) q += "/a";
  EXPECT_EQ(TwigToXPath(path, dict), q);
  auto compiled = CompileXPath(q, &dict);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("twig nesting deeper than 4096"),
            std::string::npos)
      << compiled.status().ToString();
}

/// An `nodes`-node path of label `a` in twig syntax, and in XPath.
std::string TwigPath(int nodes) {
  std::string q;
  for (int i = 1; i < nodes; ++i) q += "a(";
  q += "a";
  q.append(static_cast<size_t>(nodes - 1), ')');
  return q;
}
std::string XPathPath(int nodes) {
  std::string q;
  for (int i = 0; i < nodes; ++i) q += "/a";
  return q;
}

// Both syntaxes accept a twig Twig::kMaxDepth edges deep and refuse one
// edge more, with the same words; predicates and value tests count too.
TEST(XPathTest, DepthCapMatchesTheTwigParser) {
  const int deepest = Twig::kMaxDepth + 1;  // nodes on the deepest path
  LabelDict dict;
  auto twig = Twig::Parse(TwigPath(deepest), &dict);
  auto xpath = CompileXPath(XPathPath(deepest), &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_TRUE(xpath.ok()) << xpath.status().ToString();
  EXPECT_TRUE(*twig == *xpath);
  EXPECT_TRUE(CompileXPath(XPathPath(deepest - 1) + "[a]", &dict).ok());
  for (const Result<Twig>& deeper :
       {Twig::Parse(TwigPath(deepest + 1), &dict),
        CompileXPath(XPathPath(deepest + 1), &dict),
        CompileQuery(XPathPath(deepest + 1), &dict),
        CompileXPath(XPathPath(deepest) + "[a]", &dict),
        CompileXPath(XPathPath(deepest) + "=\"x\"", &dict)}) {
    ASSERT_FALSE(deeper.ok());
    EXPECT_NE(deeper.status().message().find("twig nesting deeper than 4096"),
              std::string::npos)
        << deeper.status().ToString();
  }
}

/// A star of `nodes` nodes: `a` over b leaves, in twig syntax and in XPath.
std::string TwigStar(int nodes) {
  std::string q = "a(b";
  for (int i = 2; i < nodes; ++i) q += ",b";
  return q + ")";
}
std::string XPathStar(int nodes) {
  std::string q = "a";
  for (int i = 1; i < nodes; ++i) q += "[b]";
  return q;
}

// CompileQuery, the front door, admits Twig::kMaxQueryNodes nodes in
// either syntax and refuses one more, naming the limit: the parsers' own
// caps bound a query's height, not its size.
TEST(XPathTest, CompileQueryCapsTheNodeCount) {
  LabelDict dict;
  const int most = Twig::kMaxQueryNodes;
  for (const std::string& text : {TwigStar(most), XPathStar(most)}) {
    Result<Twig> query = CompileQuery(text, &dict);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_EQ(query->size(), most);
  }
  for (const std::string& text : {TwigStar(most + 1), XPathStar(most + 1)}) {
    Result<Twig> query = CompileQuery(text, &dict);
    ASSERT_FALSE(query.ok());
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(query.status().message(),
              "query has 4097 nodes; the limit is 4096");
  }
}

// The deepest accepted XPath query also estimates: the recursion takes
// one frame per level and stays within the stack (a 40,000-step path used
// to overflow it).
TEST(XPathTest, DeepestAcceptedPathEstimates) {
  auto doc = ParseXmlString("<r><a><a><a><a/></a></a></a><a/></r>");
  ASSERT_TRUE(doc.ok());
  LatticeBuildOptions options;
  options.max_level = 3;
  auto summary = BuildLattice(*doc, options);
  ASSERT_TRUE(summary.ok());
  auto query =
      CompileXPath(XPathPath(Twig::kMaxDepth + 1), &doc->mutable_dict());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  RecursiveDecompositionEstimator estimator(&*summary);
  auto estimate = estimator.Estimate(*query);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_GE(*estimate, 0.0);
}

}  // namespace
}  // namespace treelattice
