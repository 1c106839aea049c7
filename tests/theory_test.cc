// Tests pinning the paper's formal results to the implementation:
// Theorem 1 (augmented-twig expectation), Lemma 1 (general overlap),
// Lemma 3 (fixed-size product formula), Lemma 4 (Markov reduction, also
// covered in estimator_test), and the exactness relationships between the
// estimators on independence-by-construction documents.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/fixed_size_estimator.h"
#include "core/markov_path_estimator.h"
#include "core/recursive_estimator.h"
#include "datagen/random_tree.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "twig/decompose.h"
#include "workload/workload.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

LatticeSummary MustBuild(const Document& doc, int level) {
  LatticeBuildOptions options;
  options.max_level = level;
  Result<LatticeSummary> summary = BuildLattice(doc, options);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return std::move(summary).value();
}

// Theorem 1: for twigs T1 = T + e1, T2 = T + e2 differing in one edge, the
// expected count of T1 ∪ T2 under conditional independence is
// s(T1)*s(T2)/s(T). Build a document where the independence holds exactly
// *per node* (every x has the same joint child distribution) and check the
// estimator against a hand computation.
TEST(Theorem1Test, AugmentedTwigExpectation) {
  // 12 x's: each independently has a y-child w.p. 1/2 and a z-child w.p.
  // 1/3 — realized exactly as counts: 6 have y, 4 have z, 2 have both
  // (6*4/12 = 2: independence holds exactly in the counts).
  std::string xml = "<r>";
  for (int i = 0; i < 2; ++i) xml += "<x><y/><z/></x>";
  for (int i = 0; i < 4; ++i) xml += "<x><y/></x>";
  for (int i = 0; i < 2; ++i) xml += "<x><z/></x>";
  for (int i = 0; i < 4; ++i) xml += "<x/>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  MatchCounter counter(*doc);

  // s(x(y)) = 6, s(x(z)) = 4, s(x) = 12, true s(x(y,z)) = 2 = 6*4/12.
  EXPECT_EQ(counter.Count(MustParse("x(y)", dict)), 6u);
  EXPECT_EQ(counter.Count(MustParse("x(z)", dict)), 4u);
  EXPECT_EQ(counter.Count(MustParse("x(y,z)", dict)), 2u);

  LatticeSummary summary = MustBuild(*doc, 2);
  RecursiveDecompositionEstimator estimator(&summary);
  auto estimate = estimator.Estimate(MustParse("x(y,z)", dict));
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-12);
}

// Lemma 1 with a larger overlap: T1 and T2 share a 2-node common part.
TEST(Lemma1Test, LargerOverlapDecomposition) {
  // Every a(b) pair: b has y w.p. realized 1/2, and a has c w.p. 1/2,
  // jointly independent: 8 a's, 4 with c; each a has one b; 4 b's have y;
  // exactly 2 a's have both c and b(y).
  std::string xml = "<r>";
  xml += "<a><c/><b><y/></b></a><a><c/><b><y/></b></a>";   // both
  xml += "<a><c/><b/></a><a><c/><b/></a>";                 // c only
  xml += "<a><b><y/></b></a><a><b><y/></b></a>";           // y only
  xml += "<a><b/></a><a><b/></a>";                         // neither
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  MatchCounter counter(*doc);
  Twig query = MustParse("a(c,b(y))", dict);  // size 4
  EXPECT_EQ(counter.Count(query), 2u);

  LatticeSummary summary = MustBuild(*doc, 3);
  ASSERT_FALSE(summary.Lookup(query).has_value());
  RecursiveDecompositionEstimator estimator(&summary);
  // s(a(c,b)) * s(a(b(y))) / s(a(b)) = 4 * 4 / 8 = 2.
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-12);
}

// Lemma 3: the fixed-size estimator must equal the explicit product
// formula computed by hand from the cover steps.
class Lemma3Property : public testing::TestWithParam<int> {};

TEST_P(Lemma3Property, EstimateEqualsProductFormula) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions tree;
  tree.seed = seed + 500;
  tree.num_nodes = 100;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 3);
  FixedSizeDecompositionEstimator estimator(&summary);

  WorkloadOptions wl;
  wl.seed = seed;
  wl.query_size = 6;
  wl.num_queries = 10;
  auto queries = GeneratePositiveWorkload(doc, wl);
  ASSERT_TRUE(queries.ok());
  for (const Twig& q : *queries) {
    auto steps = FixedSizeCover(q, 3);
    ASSERT_TRUE(steps.ok());
    double expected = 0.0;
    bool zero = false;
    {
      auto lookup = [&](const Twig& t) {
        auto c = summary.Lookup(t);
        return c ? double(*c) : 0.0;
      };
      expected = lookup((*steps)[0].subtree);
      if (expected <= 0) zero = true;
      for (size_t i = 1; i < steps->size() && !zero; ++i) {
        double numer = lookup((*steps)[i].subtree);
        double denom = lookup((*steps)[i].overlap);
        if (numer <= 0 || denom <= 0) {
          zero = true;
          break;
        }
        expected *= numer / denom;
      }
    }
    auto estimate = estimator.Estimate(q);
    ASSERT_TRUE(estimate.ok());
    if (zero) {
      EXPECT_EQ(*estimate, 0.0);
    } else {
      EXPECT_NEAR(*estimate, expected, 1e-9 * (1 + expected))
          << q.ToDebugString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma3Property, testing::Range(0, 10));

// On a document whose branches are jointly independent by construction,
// recursive and fixed-size estimates agree with each other and with the
// truth for out-of-lattice queries.
TEST(EstimatorAgreementTest, IndependentDocument) {
  std::string xml = "<r>";
  for (int i = 0; i < 6; ++i) xml += "<x><y><u/></y><z><v/></z><w/></x>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  MatchCounter counter(*doc);
  LatticeSummary summary = MustBuild(*doc, 3);

  RecursiveDecompositionEstimator recursive(&summary);
  FixedSizeDecompositionEstimator fixed(&summary);
  for (const char* text :
       {"x(y(u),z(v))", "x(y,z,w)", "x(y(u),z,w)", "r(x(y(u),z(v)))"}) {
    Twig q = MustParse(text, dict);
    double truth = static_cast<double>(counter.Count(q));
    auto r = recursive.Estimate(q);
    auto f = fixed.Estimate(q);
    ASSERT_TRUE(r.ok() && f.ok());
    EXPECT_NEAR(*r, truth, 1e-9) << text;
    EXPECT_NEAR(*f, truth, 1e-9) << text;
  }
}

// The Markov order is the summary's level: over a 2-lattice the path
// estimator is the classic first-order Markov chain over edge counts.
TEST(MarkovOrderTest, OrderTwoUsesEdgeCounts) {
  auto doc = ParseXmlString(
      "<r><a><b><c/></b></a><a><b/></a><a><b><c/></b></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 2);
  MarkovPathEstimator markov(&summary);
  // f(r/a/b/c) = f(r/a)*f(a/b)/f(a)*f(b/c)/f(b) = 3 * 3/3 * 2/3 = 2.
  auto estimate = markov.Estimate(MustParse("r(a(b(c)))", dict));
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-12);
}

// The fixed-size estimator's cover size is the summary's level too: over a
// 2-lattice it covers a path with edges, as the order-2 Markov chain does.
TEST(FixedSizeKOptionTest, SmallerKIsMarkovLike) {
  RandomTreeOptions tree;
  tree.seed = 9;
  tree.num_nodes = 120;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 2);
  FixedSizeDecompositionEstimator fixed2(&summary);
  MarkovPathEstimator markov(&summary);

  WorkloadOptions wl;
  wl.seed = 77;
  wl.query_size = 5;
  wl.num_queries = 30;
  auto queries = GeneratePositiveWorkload(doc, wl);
  ASSERT_TRUE(queries.ok());
  int paths = 0;
  for (const Twig& q : *queries) {
    if (!q.IsPath()) continue;
    ++paths;
    auto a = fixed2.Estimate(q);
    auto b = markov.Estimate(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(*a, *b, 1e-9 * (1 + *b)) << q.ToDebugString();
  }
  EXPECT_GT(paths, 0);
}

// Occurrence is monotone under sub-twig removal: if a twig matches, every
// sub-twig obtained by removing a degree-1 node matches too (the Apriori
// property the miner relies on). Note the *counts* themselves are not
// ordered — a(b) can have more matches than a.
class OccurrenceMonotoneProperty : public testing::TestWithParam<int> {};

TEST_P(OccurrenceMonotoneProperty, SubTwigsOfOccurringTwigsOccur) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions tree;
  tree.seed = seed + 900;
  tree.num_nodes = 80;
  tree.num_labels = 3;
  Document doc = GenerateRandomTree(tree);
  MatchCounter counter(doc);

  WorkloadOptions wl;
  wl.seed = seed;
  wl.query_size = 5;
  wl.num_queries = 10;
  wl.allow_duplicate_siblings = true;
  auto queries = GeneratePositiveWorkload(doc, wl);
  ASSERT_TRUE(queries.ok());
  for (const Twig& q : *queries) {
    ASSERT_GT(counter.Count(q), 0u);  // positive workload
    for (int node : q.RemovableNodes()) {
      Result<Twig> sub = q.RemoveNode(node);
      ASSERT_TRUE(sub.ok());
      EXPECT_GT(counter.Count(*sub), 0u) << q.ToDebugString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccurrenceMonotoneProperty,
                         testing::Range(0, 15));

}  // namespace
}  // namespace treelattice
