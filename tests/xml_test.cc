#include <string>

#include <gtest/gtest.h>

#include "temp_path.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace treelattice {
namespace {

TEST(LabelDictTest, InternIsIdempotent) {
  LabelDict dict;
  LabelId a = dict.Intern("book");
  LabelId b = dict.Intern("book");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.Name(a), "book");
}

TEST(LabelDictTest, FindMissingReturnsInvalid) {
  LabelDict dict;
  dict.Intern("a");
  EXPECT_EQ(dict.Find("a"), 0);
  EXPECT_EQ(dict.Find("zzz"), kInvalidLabel);
}

TEST(LabelDictTest, DistinctLabelsGetDenseIds) {
  LabelDict dict;
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.Intern("b"), 1);
  EXPECT_EQ(dict.Intern("c"), 2);
}

TEST(DocumentTest, BuildAndNavigate) {
  Document doc;
  NodeId root = doc.AddNode("computer", kInvalidNode);
  NodeId laptops = doc.AddNode("laptops", root);
  NodeId desktops = doc.AddNode("desktops", root);
  NodeId laptop = doc.AddNode("laptop", laptops);
  doc.AddNode("brand", laptop);
  doc.AddNode("price", laptop);

  EXPECT_EQ(doc.NumNodes(), 6u);
  EXPECT_EQ(doc.root(), root);
  EXPECT_EQ(doc.Parent(laptops), root);
  EXPECT_EQ(doc.NumChildren(root), 2);
  EXPECT_EQ(doc.NumChildren(laptop), 2);
  EXPECT_EQ(doc.Children(root), (std::vector<NodeId>{laptops, desktops}));
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentTest, EmptyDocument) {
  Document doc;
  EXPECT_TRUE(doc.empty());
  EXPECT_EQ(doc.root(), kInvalidNode);
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentTest, MemoryBytesGrowsWithNodes) {
  Document doc;
  doc.AddNode("a", kInvalidNode);
  size_t one = doc.MemoryBytes();
  doc.AddNode("b", 0);
  EXPECT_GT(doc.MemoryBytes(), one);
}

TEST(LabelIndexTest, FindsAllNodesPerLabel) {
  Document doc;
  NodeId root = doc.AddNode("a", kInvalidNode);
  doc.AddNode("b", root);
  NodeId b2 = doc.AddNode("b", root);
  doc.AddNode("c", b2);
  LabelIndex index(doc);
  LabelId b_label = doc.dict().Find("b");
  EXPECT_EQ(index.Count(b_label), 2u);
  EXPECT_EQ(index.Count(doc.dict().Find("a")), 1u);
  EXPECT_EQ(index.Count(kInvalidLabel), 0u);
  EXPECT_TRUE(index.Nodes(999).empty());
}

// ---------------------------------------------------------------------------
// Parser tests.

TEST(XmlParserTest, ParsesNestedElements) {
  auto result = ParseXmlString("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Document& doc = *result;
  EXPECT_EQ(doc.NumNodes(), 4u);
  EXPECT_EQ(doc.dict().Name(doc.Label(doc.root())), "a");
  EXPECT_EQ(doc.NumChildren(doc.root()), 2);
}

TEST(XmlParserTest, IgnoresTextValues) {
  auto result = ParseXmlString("<a>hello<b>world</b>tail</a>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumNodes(), 2u);
}

TEST(XmlParserTest, SkipsPrologCommentsCdataDoctype) {
  const std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE a SYSTEM \"a.dtd\">\n"
      "<!-- a comment -->\n"
      "<a><![CDATA[<not><parsed>]]><b/></a>";
  auto result = ParseXmlString(xml);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumNodes(), 2u);
}

TEST(XmlParserTest, AttributesIgnoredByDefault) {
  auto result = ParseXmlString("<a x=\"1\" y='2'><b z=\"3\"/></a>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumNodes(), 2u);
}

TEST(XmlParserTest, AttributesModeledWhenRequested) {
  XmlParseOptions options;
  options.model_attributes = true;
  auto result = ParseXmlString("<a x=\"1\"><b y='2'/></a>", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumNodes(), 4u);  // a, @x, b, @y
  EXPECT_EQ(result->dict().Find("@x"), 1);
}

TEST(XmlParserTest, RejectsMismatchedTags) {
  auto result = ParseXmlString("<a><b></a></b>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, RejectsUnclosedElement) {
  auto result = ParseXmlString("<a><b>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, RejectsMultipleRoots) {
  auto result = ParseXmlString("<a/><b/>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseXmlString("").ok());
  EXPECT_FALSE(ParseXmlString("   \n ").ok());
}

TEST(XmlParserTest, RejectsTextBeforeRoot) {
  EXPECT_FALSE(ParseXmlString("junk<a/>").ok());
}

TEST(XmlParserTest, RejectsGarbageAttribute) {
  EXPECT_FALSE(ParseXmlString("<a x></a>").ok());
  EXPECT_FALSE(ParseXmlString("<a x=1></a>").ok());
  EXPECT_FALSE(ParseXmlString("<a x=\"1></a>").ok());
}

TEST(XmlParserTest, MissingFileIsIOError) {
  auto result = ParseXmlFile("/nonexistent/path/file.xml");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Writer tests.

TEST(XmlWriterTest, RoundTripPreservesStructure) {
  const std::string xml = "<a><b><c/><c/></b><d/></a>";
  auto first = ParseXmlString(xml);
  ASSERT_TRUE(first.ok());
  std::string out = WriteXmlString(*first);
  auto second = ParseXmlString(out);
  ASSERT_TRUE(second.ok()) << second.status().ToString() << " in: " << out;
  EXPECT_EQ(first->NumNodes(), second->NumNodes());
  for (NodeId n = 0; n < static_cast<NodeId>(first->NumNodes()); ++n) {
    EXPECT_EQ(first->dict().Name(first->Label(n)),
              second->dict().Name(second->Label(n)));
    EXPECT_EQ(first->Parent(n), second->Parent(n));
  }
}

TEST(XmlWriterTest, AttributeChildrenRoundTrip) {
  XmlParseOptions options;
  options.model_attributes = true;
  auto first = ParseXmlString("<a x=\"1\"><b/></a>", options);
  ASSERT_TRUE(first.ok());
  std::string out = WriteXmlString(*first);
  auto second = ParseXmlString(out, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString() << " in: " << out;
  EXPECT_EQ(second->NumNodes(), 3u);
}

TEST(XmlWriterTest, FileRoundTrip) {
  Document doc;
  NodeId root = doc.AddNode("r", kInvalidNode);
  doc.AddNode("x", root);
  const ScopedTempPath path_file("tl_writer_test.xml");
  const std::string& path = path_file.path();
  ASSERT_TRUE(WriteXmlFile(doc, path).ok());
  auto loaded = ParseXmlFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), 2u);
}

TEST(XmlWriterTest, PrettyOutputParses) {
  auto doc = ParseXmlString("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  std::string pretty = WriteXmlString(*doc, /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto reparsed = ParseXmlString(pretty);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->NumNodes(), 3u);
}

}  // namespace
}  // namespace treelattice
