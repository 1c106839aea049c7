#include <string>

#include <gtest/gtest.h>

#include "core/pruning.h"
#include "core/recursive_estimator.h"
#include "datagen/random_tree.h"
#include "mining/lattice_builder.h"
#include "workload/workload.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

LatticeSummary MustBuild(const Document& doc, int level) {
  LatticeBuildOptions options;
  options.max_level = level;
  Result<LatticeSummary> summary = BuildLattice(doc, options);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return std::move(summary).value();
}

TEST(PruningTest, RejectsNegativeDelta) {
  Document doc;
  doc.AddNode("r", kInvalidNode);
  LatticeSummary summary = MustBuild(doc, 3);
  PruneOptions options;
  options.delta = -0.5;
  EXPECT_FALSE(PruneDerivablePatterns(summary, options).ok());
}

TEST(PruningTest, KeepsLevels1And2Verbatim) {
  RandomTreeOptions tree;
  tree.seed = 3;
  tree.num_nodes = 150;
  tree.num_labels = 5;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 4);
  auto pruned = PruneDerivablePatterns(summary);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->NumPatterns(1), summary.NumPatterns(1));
  EXPECT_EQ(pruned->NumPatterns(2), summary.NumPatterns(2));
  for (int level = 1; level <= 2; ++level) {
    for (const std::string& code : summary.PatternsAtLevel(level)) {
      EXPECT_EQ(pruned->LookupCode(code), summary.LookupCode(code));
    }
  }
}

// Under perfect conditional independence, every level >= 3 pattern with
// distinct sibling labels is 0-derivable. Duplicate-sibling patterns like
// r(x,x) are genuinely non-derivable: the decomposition formula does not
// model match injectivity (est 8*8/1 = 64 vs true 8*7 = 56), so exactly
// those survive.
TEST(PruningTest, IndependentDocumentPrunesDistinctLabelPatterns) {
  std::string xml = "<r>";
  for (int i = 0; i < 8; ++i) xml += "<x><y/><z/><w/></x>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LatticeSummary summary = MustBuild(*doc, 4);
  ASSERT_GT(summary.NumPatterns(3), 1u);

  PruneStats stats;
  auto pruned = PruneDerivablePatterns(summary, PruneOptions(), &stats);
  ASSERT_TRUE(pruned.ok());
  // The only level-3 survivor is r(x,x); every independent branching
  // pattern (x(y,z), x(y,w), x(z,w), r(x(y)), ...) is derivable.
  EXPECT_EQ(pruned->NumPatterns(3), 1u);
  LabelDict* dict = &doc->mutable_dict();
  Result<Twig> rxx = Twig::Parse("r(x,x)", dict);
  ASSERT_TRUE(rxx.ok());
  EXPECT_TRUE(pruned->Lookup(*rxx).has_value());
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
  EXPECT_EQ(stats.patterns_before, summary.NumPatterns());
  EXPECT_EQ(stats.patterns_after, pruned->NumPatterns());
  EXPECT_EQ(pruned->complete_through_level(), 2);
}

// Lemma 5: removing 0-derivable patterns leaves every estimate unchanged
// for the estimator configuration that judged derivability. Each of the
// three configurations serve and the benches run (no voting, voting mean,
// voting median) prunes for itself and then estimates.
class Lemma5Property : public testing::TestWithParam<int> {};

TEST_P(Lemma5Property, ZeroDeltaPruningIsLossless) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions tree;
  tree.seed = seed + 77;
  tree.num_nodes = 120;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 4);

  using Aggregation = RecursiveDecompositionEstimator::VoteAggregation;
  RecursiveDecompositionEstimator::Options configurations[3];
  configurations[1].voting = true;
  configurations[2].voting = true;
  configurations[2].aggregation = Aggregation::kMedian;
  for (const RecursiveDecompositionEstimator::Options& config :
       configurations) {
    PruneOptions prune;
    prune.estimator = config;
    auto pruned = PruneDerivablePatterns(summary, prune);
    ASSERT_TRUE(pruned.ok());

    RecursiveDecompositionEstimator full(&summary, config);
    RecursiveDecompositionEstimator compact(&*pruned, config);

    WorkloadOptions wl;
    wl.seed = seed;
    wl.num_queries = 20;
    for (int size = 3; size <= 7; ++size) {
      wl.query_size = size;
      auto queries = GeneratePositiveWorkload(doc, wl);
      ASSERT_TRUE(queries.ok());
      for (const Twig& q : *queries) {
        auto a = full.Estimate(q);
        auto b = compact.Estimate(q);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_NEAR(*a, *b, 1e-6 * (1.0 + *a))
            << full.name() << ": " << q.ToDebugString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma5Property, testing::Range(0, 10));

// Larger delta prunes at least as much as smaller delta.
TEST(PruningTest, DeltaMonotonicity) {
  RandomTreeOptions tree;
  tree.seed = 21;
  tree.num_nodes = 200;
  tree.num_labels = 5;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 4);

  size_t previous = summary.NumPatterns();
  for (double delta : {0.0, 0.1, 0.2, 0.3}) {
    PruneOptions options;
    options.delta = delta;
    auto pruned = PruneDerivablePatterns(summary, options);
    ASSERT_TRUE(pruned.ok());
    EXPECT_LE(pruned->NumPatterns(), previous);
    previous = pruned->NumPatterns();
  }
}

TEST(PruningTest, NothingToPruneKeepsCompleteness) {
  // Document where no level-3 pattern is derivable: strong correlation.
  std::string xml = "<r>";
  for (int i = 0; i < 5; ++i) xml += "<a><b/><c/></a>";
  for (int i = 0; i < 5; ++i) xml += "<a><d/></a>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LatticeSummary summary = MustBuild(*doc, 3);
  auto pruned = PruneDerivablePatterns(summary);
  ASSERT_TRUE(pruned.ok());
  if (pruned->NumPatterns() == summary.NumPatterns()) {
    EXPECT_EQ(pruned->complete_through_level(),
              summary.complete_through_level());
  } else {
    EXPECT_EQ(pruned->complete_through_level(), 2);
  }
}

}  // namespace
}  // namespace treelattice
