// Failure-injection and fuzz-ish robustness tests: random bytes and
// adversarial structures must produce clean Status errors, never crashes
// or hangs.

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/env.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "util/rng.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/xpath.h"

namespace treelattice {
namespace {

class XmlFuzzProperty : public testing::TestWithParam<int> {};

TEST_P(XmlFuzzProperty, RandomBytesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1337 + 7);
  // Byte soup biased toward XML-ish characters so the parser gets past the
  // first branch often.
  const char alphabet[] = "<>/=\"' abcdeXML?!-[]&;\t\n";
  for (int trial = 0; trial < 50; ++trial) {
    std::string input;
    size_t length = rng.Uniform(200);
    for (size_t i = 0; i < length; ++i) {
      if (rng.Bernoulli(0.9)) {
        input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
      } else {
        input.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
    Result<Document> result = ParseXmlString(input);
    if (result.ok()) {
      // Whatever parsed must be a valid tree and round-trippable.
      EXPECT_TRUE(result->Validate().ok());
      EXPECT_TRUE(ParseXmlString(WriteXmlString(*result)).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzProperty, testing::Range(0, 20));

class TwigFuzzProperty : public testing::TestWithParam<int> {};

TEST_P(TwigFuzzProperty, RandomTwigTextNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 3);
  const char alphabet[] = "ab(),x1 ";
  LabelDict dict;
  for (int trial = 0; trial < 100; ++trial) {
    std::string input;
    size_t length = rng.Uniform(40);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    Result<Twig> twig = Twig::Parse(input, &dict);
    if (twig.ok()) {
      // Parsed twigs must round-trip through their canonical code.
      Result<Twig> again = Twig::FromCanonicalCode(twig->CanonicalCode());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->CanonicalCode(), twig->CanonicalCode());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigFuzzProperty, testing::Range(0, 20));

class XPathFuzzProperty : public testing::TestWithParam<int> {};

TEST_P(XPathFuzzProperty, RandomXPathTextNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 13);
  const char alphabet[] = "ab/[]@*12 .";
  LabelDict dict;
  for (int trial = 0; trial < 100; ++trial) {
    std::string input;
    size_t length = rng.Uniform(40);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    Result<Twig> twig = CompileXPath(input, &dict);
    if (twig.ok()) {
      EXPECT_GE(twig->size(), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathFuzzProperty, testing::Range(0, 20));

TEST(DeepNestingTest, ParserHandlesDeepDocuments) {
  // 2000-deep chain: the parser is iterative, so this must parse cleanly.
  const int depth = 2000;
  std::string xml;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  Result<Document> doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->NumNodes(), static_cast<size_t>(depth));
  EXPECT_TRUE(doc->Validate().ok());
}

TEST(DeepNestingTest, SummaryHandlesPathPatternsOfMaxLevel) {
  const int depth = 500;
  std::string xml;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  Result<Document> doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  // A single-label chain: level-k pattern is the k-path, count depth-k+1.
  LatticeSummary summary(3);
  Twig path3;
  int node = path3.AddNode(doc->Label(0), -1);
  node = path3.AddNode(doc->Label(0), node);
  path3.AddNode(doc->Label(0), node);
  ASSERT_TRUE(summary.Insert(path3, depth - 2).ok());
  EXPECT_EQ(*summary.Lookup(path3), static_cast<uint64_t>(depth - 2));
}

TEST(MalformedSummaryTest, TruncatedFileRejected) {
  const ScopedTempPath path_file("tl_truncated_summary.txt");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "TLSUMMARY v1\n4 4\n5\n10 0\n";  // claims 5 entries, has 1
  }
  Result<LatticeSummary> result = LatticeSummary::LoadFromFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(MalformedSummaryTest, GarbageCodeRejected) {
  const ScopedTempPath path_file("tl_garbage_summary.txt");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "TLSUMMARY v1\n4 4\n1\n10 not-a-code\n";
  }
  Result<LatticeSummary> result = LatticeSummary::LoadFromFile(path);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// Summary-file fuzz suite: a damaged summary file — truncated anywhere,
// or with any single bit flipped — must load to a clean Status (ok with
// salvage, or a typed error), never crash, hang, or silently return wrong
// counts while claiming to be undamaged.

/// Reference v2 summary (with embedded dict) whose bytes the fuzz cases
/// mutate, plus the original counts to compare salvage results against.
struct SummaryFuzzFixture {
  LabelDict dict;
  LatticeSummary summary{3};
  std::string bytes;
  const ScopedTempPath reference_file{"tl_fuzz_reference"};
  const ScopedTempPath case_file{"tl_fuzz_case"};
  const std::string& reference_path = reference_file.path();
  const std::string& case_path = case_file.path();

  SummaryFuzzFixture() { Init(); }

  // gtest fatal assertions are only usable in void functions, so the
  // constructor delegates.
  void Init() {
    auto insert = [&](const std::string& text, uint64_t count) {
      Result<Twig> twig = Twig::Parse(text, &dict);
      ASSERT_TRUE(twig.ok());
      ASSERT_TRUE(summary.Insert(*twig, count).ok());
    };
    insert("a", 100);
    insert("b", 60);
    insert("c", 30);
    insert("a(b)", 40);
    insert("a(c)", 20);
    insert("a(b,c)", 10);
    insert("a(b(c))", 5);
    summary.set_complete_through_level(3);
    ASSERT_TRUE(
        SaveSummaryV2(summary, &dict, Env::Default(), reference_path).ok());
    ASSERT_TRUE(
        ReadFileToString(Env::Default(), reference_path, &bytes).ok());
  }

  /// Loads `mutated` and enforces the fuzz contract. `original` is the
  /// undamaged summary for comparing untouched loads.
  void CheckMutation(const std::string& mutated,
                     const std::string& name) const {
    ASSERT_TRUE(WriteFileAtomic(Env::Default(), case_path, mutated).ok());
    Result<LoadedSummary> loaded = LoadSummary(Env::Default(), case_path);
    if (!loaded.ok()) {
      // Clean typed failure is always acceptable.
      EXPECT_NE(loaded.status().code(), StatusCode::kOk) << name;
      return;
    }
    const LatticeSummary& got = loaded->summary;
    EXPECT_LE(got.complete_through_level(), got.max_level()) << name;
    if (!loaded->salvaged) {
      // Checksums intact: counts must be exactly the originals.
      ASSERT_EQ(got.NumPatterns(), summary.NumPatterns()) << name;
      for (int level = 1; level <= summary.max_level(); ++level) {
        for (const std::string& code : summary.PatternsAtLevel(level)) {
          ASSERT_TRUE(got.LookupCode(code).has_value()) << name;
          EXPECT_EQ(*got.LookupCode(code), *summary.LookupCode(code))
              << name;
        }
      }
    } else {
      // Salvage: whatever survived must be a subset with original counts.
      EXPECT_FALSE(loaded->corruption_detail.empty()) << name;
      for (int level = 1; level <= got.max_level(); ++level) {
        for (const std::string& code : got.PatternsAtLevel(level)) {
          ASSERT_TRUE(summary.LookupCode(code).has_value()) << name;
          EXPECT_EQ(*got.LookupCode(code), *summary.LookupCode(code))
              << name;
        }
      }
    }
    // Verify must agree with the loader about integrity.
    Result<VerifyReport> report =
        VerifySummaryFile(Env::Default(), case_path);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_EQ(report->intact, !loaded->salvaged) << name;
  }
};

TEST(SummaryFileFuzz, EveryTruncationPointLoadsCleanly) {
  SummaryFuzzFixture fx;
  for (size_t cut = 0; cut < fx.bytes.size(); ++cut) {
    fx.CheckMutation(fx.bytes.substr(0, cut),
                     "truncated to " + std::to_string(cut) + " bytes");
  }
}

TEST(SummaryFileFuzz, EverySingleBitFlipIsDetectedOrHarmless) {
  SummaryFuzzFixture fx;
  for (size_t i = 0; i < fx.bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = fx.bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      fx.CheckMutation(mutated, "bit " + std::to_string(bit) + " of byte " +
                                    std::to_string(i));
    }
  }
}

TEST(SummaryFileFuzz, RandomMultiByteCorruptionLoadsCleanly) {
  SummaryFuzzFixture fx;
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = fx.bytes;
    size_t flips = 1 + rng.Uniform(8);
    for (size_t f = 0; f < flips; ++f) {
      size_t at = rng.Uniform(mutated.size());
      mutated[at] = static_cast<char>(rng.Uniform(256));
    }
    fx.CheckMutation(mutated, "random corruption trial " +
                                  std::to_string(trial));
  }
}

TEST(SummaryFileFuzz, V1RandomTruncationNeverCrashes) {
  SummaryFuzzFixture fx;
  const ScopedTempPath path_file("tl_fuzz_v1.txt");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFileV1(path).ok());
  std::string v1_bytes;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &v1_bytes).ok());
  for (size_t cut = 0; cut < v1_bytes.size(); ++cut) {
    const ScopedTempPath cut_path_file("tl_fuzz_v1_cut.txt");
    const std::string& cut_path = cut_path_file.path();
    ASSERT_TRUE(WriteFileAtomic(Env::Default(), cut_path,
                                v1_bytes.substr(0, cut))
                    .ok());
    Result<LatticeSummary> loaded = LatticeSummary::LoadFromFile(cut_path);
    // v1 has no checksums: a truncated file either still parses as a
    // prefix-consistent summary or fails cleanly; both are acceptable,
    // crashing or hanging is not.
    if (loaded.ok()) {
      EXPECT_LE(loaded->complete_through_level(), loaded->max_level());
    }
  }
}

TEST(SummaryFileFuzz, CrossVersionLoadsReportTheirFormat) {
  SummaryFuzzFixture fx;
  const ScopedTempPath v1_path_file("tl_cross_v1.txt");
  const std::string& v1_path = v1_path_file.path();
  const ScopedTempPath v2_path_file("tl_cross_v2.tls");
  const std::string& v2_path = v2_path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFileV1(v1_path).ok());
  ASSERT_TRUE(fx.summary.SaveToFile(v2_path).ok());

  Result<LoadedSummary> v1 = LoadSummary(Env::Default(), v1_path);
  Result<LoadedSummary> v2 = LoadSummary(Env::Default(), v2_path);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->format_version, 1);
  EXPECT_EQ(v2->format_version, 2);
  ASSERT_EQ(v1->summary.NumPatterns(), v2->summary.NumPatterns());
  for (int level = 1; level <= fx.summary.max_level(); ++level) {
    for (const std::string& code : fx.summary.PatternsAtLevel(level)) {
      EXPECT_EQ(*v1->summary.LookupCode(code), *v2->summary.LookupCode(code));
    }
  }
}

}  // namespace
}  // namespace treelattice
