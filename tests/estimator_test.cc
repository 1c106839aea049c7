#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimate_scratch.h"
#include "core/exact_estimator.h"
#include "core/fixed_size_estimator.h"
#include "core/markov_path_estimator.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "datagen/random_tree.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "twig/decompose.h"
#include "util/hash.h"
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

TEST(RecursiveEstimatorTest, InLatticeQueriesAreExact) {
  auto doc = ParseXmlString(
      "<r><a><b/><c/></a><a><b/></a><a><b/><c/><c/></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 4);
  MatchCounter counter(*doc);
  RecursiveDecompositionEstimator estimator(&summary);

  for (const char* q : {"a", "a(b)", "a(b,c)", "a(c,c)", "r(a,a)"}) {
    Twig query = MustParse(q, dict);
    auto estimate = estimator.Estimate(query);
    ASSERT_TRUE(estimate.ok());
    EXPECT_DOUBLE_EQ(*estimate, static_cast<double>(counter.Count(query)))
        << q;
  }
}

TEST(RecursiveEstimatorTest, MissingLabelGivesZero) {
  auto doc = ParseXmlString("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 4);
  RecursiveDecompositionEstimator estimator(&summary);
  Twig query = MustParse("r(zzz)", dict);
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 0.0);
}

TEST(RecursiveEstimatorTest, EmptyQueryRejected) {
  Document doc;
  doc.AddNode("r", kInvalidNode);
  LatticeSummary summary = MustBuild(doc, 4);
  RecursiveDecompositionEstimator estimator(&summary);
  Twig empty;
  EXPECT_FALSE(estimator.Estimate(empty).ok());
}

// Theorem 1 sanity: when the document satisfies conditional independence
// exactly, the decomposition estimate of an out-of-lattice query equals the
// true count. Construct: every x has exactly 1 y-child and 1 z-child; y has
// 1 w-child. Query x(y(w),z) of size 4 against a 3-lattice.
TEST(RecursiveEstimatorTest, ExactUnderConditionalIndependence) {
  std::string xml = "<r>";
  for (int i = 0; i < 5; ++i) xml += "<x><y><w/></y><z/></x>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  MatchCounter counter(*doc);
  RecursiveDecompositionEstimator estimator(&summary);

  Twig query = MustParse("x(y(w),z)", dict);
  ASSERT_FALSE(summary.Contains(query));  // size 4 > 3-lattice
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, static_cast<double>(counter.Count(query)), 1e-9);
}

// Lemma 1 arithmetic check on the paper's formula: s(T1 u T2) =
// s(T1) * s(T2) / s(T).
TEST(RecursiveEstimatorTest, Lemma1Formula) {
  // Document: 10 a's; 4 have a b child; 5 have a c child; independence does
  // NOT hold (correlation planted), so the estimate differs from truth in a
  // predictable way: est = s(a(b)) * s(a(c)) / s(a) = 4 * 5 / 10 = 2.
  std::string xml = "<r>";
  for (int i = 0; i < 4; ++i) xml += "<a><b/></a>";   // b only
  for (int i = 0; i < 5; ++i) xml += "<a><c/></a>";   // c only
  xml += "<a/>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 2);
  RecursiveDecompositionEstimator estimator(&summary);

  Twig query = MustParse("a(b,c)", dict);
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-9);  // true count is 0; formula gives 2
}

TEST(FixedSizeEstimatorTest, InLatticeQueriesAreExact) {
  auto doc = ParseXmlString(
      "<r><a><b/><c/></a><a><b/></a><a><b/><c/><c/></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 4);
  MatchCounter counter(*doc);
  FixedSizeDecompositionEstimator estimator(&summary);

  for (const char* q : {"a", "a(b)", "a(b,c)", "r(a,a)"}) {
    Twig query = MustParse(q, dict);
    auto estimate = estimator.Estimate(query);
    ASSERT_TRUE(estimate.ok());
    EXPECT_DOUBLE_EQ(*estimate, static_cast<double>(counter.Count(query)))
        << q;
  }
}

TEST(FixedSizeEstimatorTest, ExactUnderConditionalIndependence) {
  std::string xml = "<r>";
  for (int i = 0; i < 7; ++i) xml += "<x><y><w/></y><z/></x>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  MatchCounter counter(*doc);
  FixedSizeDecompositionEstimator estimator(&summary);

  Twig query = MustParse("x(y(w),z)", dict);
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, static_cast<double>(counter.Count(query)), 1e-9);
}

TEST(FixedSizeEstimatorTest, ZeroWhenPieceMissing) {
  auto doc = ParseXmlString("<r><a><b/></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 2);
  FixedSizeDecompositionEstimator estimator(&summary);
  // a(c) never occurs, so r(a(c)) must estimate 0.
  Twig query = MustParse("r(a(c))", dict);
  auto estimate = estimator.Estimate(query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 0.0);
}

// Lemma 4: on path queries, both decomposition estimators coincide with the
// explicit Markov-model formula.
class MarkovEquivalence : public testing::TestWithParam<int> {};

TEST_P(MarkovEquivalence, PathEstimatesMatchMarkovFormula) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions tree;
  tree.seed = seed;
  tree.num_nodes = 150;
  tree.num_labels = 4;
  tree.max_depth = 10;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 3);

  RecursiveDecompositionEstimator recursive(&summary);
  RecursiveDecompositionEstimator voting(
      &summary, RecursiveDecompositionEstimator::Options{true, 0});
  FixedSizeDecompositionEstimator fixed(&summary);
  MarkovPathEstimator markov(&summary);

  // Sample path queries of length 4..6 from the document.
  WorkloadOptions wl;
  wl.seed = seed + 1;
  wl.num_queries = 30;
  for (int size = 4; size <= 6; ++size) {
    wl.query_size = size;
    auto queries = GeneratePositiveWorkload(doc, wl);
    ASSERT_TRUE(queries.ok());
    for (const Twig& q : *queries) {
      if (!q.IsPath()) continue;
      auto m = markov.Estimate(q);
      auto r = recursive.Estimate(q);
      auto v = voting.Estimate(q);
      auto f = fixed.Estimate(q);
      ASSERT_TRUE(m.ok() && r.ok() && v.ok() && f.ok());
      EXPECT_NEAR(*r, *m, 1e-6 * (1.0 + *m)) << q.ToDebugString();
      EXPECT_NEAR(*v, *m, 1e-6 * (1.0 + *m)) << q.ToDebugString();
      EXPECT_NEAR(*f, *m, 1e-6 * (1.0 + *m)) << q.ToDebugString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkovEquivalence, testing::Range(0, 10));

TEST(MarkovPathEstimatorTest, RejectsBranchingQueries) {
  Document doc;
  NodeId r = doc.AddNode("r", kInvalidNode);
  doc.AddNode("a", r);
  LatticeSummary summary = MustBuild(doc, 2);
  MarkovPathEstimator markov(&summary);
  LabelDict dict = doc.dict();
  Twig branching = MustParse("r(a,a)", &dict);
  EXPECT_FALSE(markov.Estimate(branching).ok());
}

TEST(MarkovPathEstimatorTest, ShortPathIsDirectLookup) {
  auto doc = ParseXmlString("<r><a><b/></a><a><b/></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  MarkovPathEstimator markov(&summary);
  auto estimate = markov.Estimate(MustParse("a(b)", dict));
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 2.0);
}

// Voting: all leaf-pair estimates are averaged. Construct a case with two
// distinct leaf pairs whose estimates differ, and verify the voting result
// lies strictly between the individual ones.
TEST(VotingTest, AveragesAcrossLeafPairs) {
  std::string xml = "<r>";
  for (int i = 0; i < 6; ++i) xml += "<a><b/><b/><c/></a>";
  for (int i = 0; i < 3; ++i) xml += "<a><b/><d><c/></d></a>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  MatchCounter counter(*doc);

  RecursiveDecompositionEstimator plain(&summary);
  RecursiveDecompositionEstimator voting(
      &summary, RecursiveDecompositionEstimator::Options{true, 0});
  RecursiveDecompositionEstimator capped(
      &summary, RecursiveDecompositionEstimator::Options{true, 1});

  Twig query = MustParse("a(b,b,d(c))", dict);
  ASSERT_GT(ValidLeafPairs(query).size(), 1u);
  auto p = plain.Estimate(query);
  auto v = voting.Estimate(query);
  auto c = capped.Estimate(query);
  ASSERT_TRUE(p.ok() && v.ok() && c.ok());
  // Capped at one vote == plain first-pair behaviour.
  EXPECT_DOUBLE_EQ(*c, *p);
  // All estimates are finite and non-negative.
  EXPECT_GE(*v, 0.0);
  EXPECT_TRUE(std::isfinite(*v));
}

TEST(VotingTest, MedianAggregationDiffersAndIsFinite) {
  RandomTreeOptions tree;
  tree.seed = 41;
  tree.num_nodes = 150;
  tree.num_labels = 4;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 3);
  MatchCounter counter(doc);

  using Options = RecursiveDecompositionEstimator::Options;
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  RecursiveDecompositionEstimator mean(&summary,
                                       Options{true, 0, Agg::kMean});
  RecursiveDecompositionEstimator median(&summary,
                                         Options{true, 0, Agg::kMedian});
  EXPECT_EQ(mean.name(), "recursive+voting");
  EXPECT_EQ(median.name(), "recursive+voting-median");

  WorkloadOptions wl;
  wl.seed = 17;
  wl.query_size = 6;
  wl.num_queries = 20;
  auto queries = GeneratePositiveWorkload(doc, wl);
  ASSERT_TRUE(queries.ok());
  int different = 0;
  for (const Twig& q : *queries) {
    auto a = mean.Estimate(q);
    auto b = median.Estimate(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(std::isfinite(*b));
    EXPECT_GE(*b, 0.0);
    if (std::abs(*a - *b) > 1e-9) ++different;
    // In-lattice sub-twigs anchor both, so on in-lattice queries they
    // coincide exactly.
    if (summary.Contains(q)) {
      EXPECT_DOUBLE_EQ(*a, *b);
    }
  }
  // The aggregation rule must actually matter somewhere in the workload.
  EXPECT_GT(different, 0);
}

TEST(VotingTest, MedianWithSinglePairEqualsPlain) {
  // A path has exactly one leaf pair: mean, median and no-voting coincide.
  auto doc = ParseXmlString("<r><a><b><c/></b></a><a><b/></a></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 2);
  using Options = RecursiveDecompositionEstimator::Options;
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  RecursiveDecompositionEstimator plain(&summary);
  RecursiveDecompositionEstimator median(&summary,
                                         Options{true, 0, Agg::kMedian});
  Twig query = MustParse("r(a(b(c)))", dict);
  auto a = plain.Estimate(query);
  auto b = median.Estimate(query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

// Property: on random documents, every estimator answers in-lattice
// queries exactly, and out-of-lattice estimates are finite & non-negative.
TEST(EstimateScratchTest, ExplicitSharedAndImplicitScratchAgreeBitwise) {
  // The reusable scratch is a pure working-memory optimization: the same
  // query must produce the exact same bits whether the caller passes a
  // fresh scratch, reuses one scratch across many different queries
  // (memo and buffers warm), or passes none (internal thread-local) —
  // for both the voting recursive estimator and the fixed-size one.
  auto doc = ParseXmlString(
      "<r><x><y><w/></y><z/></x><x><y><w/><w/></y><z/><z/></x>"
      "<x><y/><z/></x><x><y><w/></y></x></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);

  RecursiveDecompositionEstimator::Options voting_options;
  voting_options.voting = true;
  RecursiveDecompositionEstimator voting(&summary, voting_options);
  FixedSizeDecompositionEstimator::Options fixed_options;
  fixed_options.k = 3;
  FixedSizeDecompositionEstimator fixed(&summary, fixed_options);

  std::vector<Twig> queries;
  for (const char* q :
       {"x(y(w),z)", "x(y,z,z)", "r(x(y),x(z))", "x(y(w,w),z)",
        "r(x,x,x)", "x(y(w),z,z)"}) {
    queries.push_back(MustParse(q, dict));
  }

  EstimateScratch shared;
  EstimateOptions with_shared;
  with_shared.scratch = &shared;
  for (const Twig& query : queries) {
    Result<double> bare = voting.Estimate(query);
    EstimateScratch fresh;
    EstimateOptions with_fresh;
    with_fresh.scratch = &fresh;
    Result<double> from_fresh = voting.Estimate(query, with_fresh);
    Result<double> from_shared = voting.Estimate(query, with_shared);
    ASSERT_TRUE(bare.ok() && from_fresh.ok() && from_shared.ok());
    // Bitwise: the scratch may never change an estimate value.
    EXPECT_EQ(*bare, *from_fresh);
    EXPECT_EQ(*bare, *from_shared);

    Result<double> fixed_bare = fixed.Estimate(query);
    Result<double> fixed_shared = fixed.Estimate(query, with_shared);
    ASSERT_TRUE(fixed_bare.ok() && fixed_shared.ok());
    EXPECT_EQ(*fixed_bare, *fixed_shared);
  }

  // Re-running the whole workload against the warm shared scratch must
  // still reproduce every value (the per-query memo reset is what keeps
  // results independent of scratch history).
  for (const Twig& query : queries) {
    Result<double> bare = voting.Estimate(query);
    Result<double> warm = voting.Estimate(query, with_shared);
    ASSERT_TRUE(bare.ok() && warm.ok());
    EXPECT_EQ(*bare, *warm);
  }
}

/// Reference oracle for the Fig. 4 recursion, written the plain way:
/// summary counts in a std::string-keyed map, a fresh string-keyed memo
/// per query, the canonical code recomputed on every sub-twig visit
/// (ComputeCanonicalCode bypasses the twig's cache), and allocating
/// SplitByLeafPair calls over ValidLeafPairs. It shares no data structure
/// with the production estimator (interned codes, node-subset and code
/// memos, bit-clear splits, the subset canonicalizer), so agreement bit for
/// bit checks the production recursion's visit order and arithmetic, not
/// just its results' shape.
class ReferenceRecursiveEstimator {
 public:
  ReferenceRecursiveEstimator(const LatticeSummary& summary,
                              RecursiveDecompositionEstimator::Options options)
      : options_(options),
        complete_through_level_(summary.complete_through_level()) {
    for (int level = 1; level <= summary.max_level(); ++level) {
      for (const std::string& code : summary.PatternsAtLevel(level)) {
        if (auto count = summary.LookupCode(code)) counts_[code] = *count;
      }
    }
  }

  Result<double> Estimate(const Twig& query) {
    std::unordered_map<std::string, double> memo;
    return EstimateImpl(query, &memo);
  }

 private:
  Result<double> EstimateImpl(const Twig& twig,
                              std::unordered_map<std::string, double>* memo) {
    const std::string code = twig.ComputeCanonicalCode();
    if (auto it = memo->find(code); it != memo->end()) return it->second;

    double value = 0.0;
    if (auto it = counts_.find(code); it != counts_.end()) {
      value = static_cast<double>(it->second);
    } else if (twig.size() <= complete_through_level_ || twig.size() < 3) {
      value = 0.0;
    } else {
      std::vector<std::pair<int, int>> pairs = ValidLeafPairs(twig);
      if (pairs.empty()) return Status::Internal("no valid leaf pair");
      size_t limit = 1;
      if (options_.voting) {
        limit = pairs.size();
        if (options_.max_votes_per_level > 0) {
          limit = std::min(
              limit, static_cast<size_t>(options_.max_votes_per_level));
        }
      }
      std::vector<double> votes;
      for (size_t i = 0; i < limit; ++i) {
        Result<RecursiveSplit> split =
            SplitByLeafPair(twig, pairs[i].first, pairs[i].second);
        if (!split.ok()) return split.status();
        double e1, e2, eo;
        TL_ASSIGN_OR_RETURN(e1, EstimateImpl(split->t1, memo));
        TL_ASSIGN_OR_RETURN(e2, EstimateImpl(split->t2, memo));
        TL_ASSIGN_OR_RETURN(eo, EstimateImpl(split->overlap, memo));
        votes.push_back(e1 > 0.0 && e2 > 0.0 && eo > 0.0 ? e1 * e2 / eo
                                                         : 0.0);
      }
      using Agg = RecursiveDecompositionEstimator::VoteAggregation;
      if (options_.aggregation == Agg::kMedian && options_.voting) {
        std::sort(votes.begin(), votes.end());
        const size_t mid = votes.size() / 2;
        value = votes.size() % 2 == 1 ? votes[mid]
                                      : 0.5 * (votes[mid - 1] + votes[mid]);
      } else {
        double sum = 0.0;
        for (double v : votes) sum += v;
        value = sum / static_cast<double>(votes.size());
      }
    }
    memo->emplace(code, value);
    return value;
  }

  RecursiveDecompositionEstimator::Options options_;
  int complete_through_level_;
  std::unordered_map<std::string, uint64_t> counts_;
};

/// Every mode the oracle checks: non-voting, voting mean and median, and
/// voting capped at one and two pairs per level.
std::vector<RecursiveDecompositionEstimator::Options> OracleModes() {
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  return {{false, 0, Agg::kMean}, {true, 0, Agg::kMean},
          {true, 0, Agg::kMedian}, {true, 1, Agg::kMean},
          {true, 2, Agg::kMean},  {true, 2, Agg::kMedian}};
}

/// Checks every mode on `queries`, each with one scratch shared (and
/// warm) across all queries and with no scratch at all.
void ExpectOracleAgreement(const LatticeSummary& summary,
                           const std::vector<Twig>& queries) {
  for (const RecursiveDecompositionEstimator::Options& options :
       OracleModes()) {
    RecursiveDecompositionEstimator production(&summary, options);
    ReferenceRecursiveEstimator oracle(summary, options);
    EstimateScratch shared;
    EstimateOptions with_shared;
    with_shared.scratch = &shared;
    for (const Twig& query : queries) {
      Result<double> expected = oracle.Estimate(query);
      Result<double> from_shared = production.Estimate(query, with_shared);
      Result<double> bare = production.Estimate(query);
      ASSERT_TRUE(expected.ok() && from_shared.ok() && bare.ok());
      const std::string mode =
          production.name() + " cap " +
          std::to_string(options.max_votes_per_level) + " " +
          query.ToDebugString();
      EXPECT_EQ(*from_shared, *expected) << mode;
      EXPECT_EQ(*bare, *expected) << mode;
    }
  }
}

/// Generated positive queries of `size`; `duplicates` lets them repeat
/// sibling labels.
std::vector<Twig> Generated(const Document& doc, int size, size_t count,
                            bool duplicates) {
  WorkloadOptions workload;
  workload.query_size = size;
  workload.num_queries = count;
  workload.allow_duplicate_siblings = duplicates;
  Result<std::vector<Twig>> queries = GeneratePositiveWorkload(doc, workload);
  EXPECT_TRUE(queries.ok()) << queries.status().ToString();
  return queries.ok() ? std::move(*queries) : std::vector<Twig>();
}

TEST(ReferenceOracleTest, ProductionRecursionMatchesTheOracleBitForBit) {
  // Generated size-8 queries over a 3-lattice recurse several levels deep;
  // duplicate siblings, identical branches and a same-label star give
  // same-shaped node subsets (see the next test).
  DatasetOptions data;
  data.scale = 100;
  Document doc = GenerateXmark(data);
  LatticeSummary summary = MustBuild(doc, 3);
  std::vector<Twig> queries = Generated(doc, 8, 24, false);
  ASSERT_EQ(queries.size(), 24u);
  for (Twig& query : Generated(doc, 8, 12, true)) {
    queries.push_back(std::move(query));
  }
  LabelDict* dict = &doc.mutable_dict();
  queries.push_back(MustParse(
      "people(person(name,emailaddress,profile(interest)),"
      "person(name,emailaddress,profile(interest)))",
      dict));
  queries.push_back(MustParse(
      "open_auction(bidder,bidder,bidder,bidder,bidder,bidder,bidder)", dict));
  ExpectOracleAgreement(summary, queries);
}

TEST(ReferenceOracleTest, SameShapedSubsetsMatchTheOracleBitForBit) {
  // The recursion memoizes by node subset in front of the code memo. In
  // these queries two subsets share a canonical code but can order their
  // leaf pairs differently, so only the code memo's first value keeps
  // capped and non-voting runs, and uncapped means, exact. Three labels:
  // repeated-label paths and same-label stars occur, and a path far longer
  // than the document is deep still estimates above 0.
  RandomTreeOptions tree;
  tree.seed = 5;
  tree.num_nodes = 3000;
  tree.num_labels = 3;
  tree.max_fanout = 6;
  tree.max_depth = 10;
  Document random = GenerateRandomTree(tree);
  LatticeSummary random_summary = MustBuild(random, 3);
  LabelDict* dict = &random.mutable_dict();
  std::vector<Twig> queries = Generated(random, 7, 12, true);
  ASSERT_FALSE(queries.empty());
  for (const char* text :
       {"l0(l0(l0(l0(l0(l0(l0))))))", "l0(l1,l1,l1,l1,l1,l1)",
        "l0(l1(l0,l2),l1(l0,l2))"}) {
    queries.push_back(MustParse(text, dict));
  }
  // l0(l1(l0,l2,l1),l1(l0,l2,l1)) numbered out of preorder, alternating
  // between the branches: the top level's first leaf pair takes one leaf
  // from each, so its T1 and T2 are mirror images, and below the top the
  // preorder pair order differs from the index order.
  Twig interleaved;
  const int root = interleaved.AddNode(dict->Intern("l0"), -1);
  const int branches[2] = {interleaved.AddNode(dict->Intern("l1"), root),
                           interleaved.AddNode(dict->Intern("l1"), root)};
  for (const char* leaf : {"l0", "l2", "l1"}) {
    for (int branch : branches) interleaved.AddNode(dict->Intern(leaf), branch);
  }
  queries.push_back(std::move(interleaved));
  // 70 nodes, a repeated-label path forking at its foot: node subsets
  // take two words.
  std::string deep = "l0(l1,l1)";
  for (int i = 0; i < 67; ++i) deep = "l0(" + deep + ")";
  queries.push_back(MustParse(deep, dict));
  ASSERT_EQ(queries.back().size(), 70);
  ExpectOracleAgreement(random_summary, queries);
}

TEST(CodeMemoTest, ResetSizesTheTableInUseForThisCall) {
  // One huge Reset must not make every later small one clear and probe a
  // huge table: the reservation is capped, and a small Reset afterwards
  // uses a small table again.
  CodeMemo memo;
  memo.Reset(size_t{1} << 20);
  EXPECT_LE(memo.slots_in_use(), size_t{8192});
  memo.Reset(64);
  EXPECT_EQ(memo.slots_in_use(), size_t{128});

  // Past the cap the table grows as entries arrive; every entry stays
  // findable, and the next small Reset shrinks the table in use again.
  memo.Reset(size_t{1} << 20);
  std::vector<std::string> codes;
  for (int i = 0; i < 20000; ++i) codes.push_back("c" + std::to_string(i));
  for (int i = 0; i < 20000; ++i) {
    memo.Insert(HashBytes(codes[i]), codes[i], static_cast<double>(i));
  }
  EXPECT_GE(memo.slots_in_use(), size_t{32768});
  for (int i = 0; i < 20000; i += 997) {
    const double* hit = memo.Find(HashBytes(codes[i]), codes[i]);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, static_cast<double>(i));
  }
  memo.Reset(64);
  EXPECT_EQ(memo.slots_in_use(), size_t{128});
  EXPECT_EQ(memo.Find(HashBytes(codes[0]), codes[0]), nullptr);
}

class EstimatorProperty : public testing::TestWithParam<int> {};

TEST_P(EstimatorProperty, ExactInLatticeFiniteBeyond) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomTreeOptions tree;
  tree.seed = seed + 1000;
  tree.num_nodes = 120;
  tree.num_labels = 5;
  Document doc = GenerateRandomTree(tree);
  LatticeSummary summary = MustBuild(doc, 4);
  MatchCounter counter(doc);

  RecursiveDecompositionEstimator recursive(&summary);
  RecursiveDecompositionEstimator voting(
      &summary, RecursiveDecompositionEstimator::Options{true, 0});
  FixedSizeDecompositionEstimator fixed(&summary);
  SelectivityEstimator* estimators[] = {&recursive, &voting, &fixed};

  WorkloadOptions wl;
  wl.seed = seed;
  wl.num_queries = 15;
  for (int size = 2; size <= 7; ++size) {
    wl.query_size = size;
    auto queries = GeneratePositiveWorkload(doc, wl);
    ASSERT_TRUE(queries.ok());
    for (const Twig& q : *queries) {
      double truth = static_cast<double>(counter.Count(q));
      for (SelectivityEstimator* estimator : estimators) {
        auto estimate = estimator->Estimate(q);
        ASSERT_TRUE(estimate.ok()) << estimator->name();
        EXPECT_GE(*estimate, 0.0);
        EXPECT_TRUE(std::isfinite(*estimate));
        if (size <= 4) {
          EXPECT_NEAR(*estimate, truth, 1e-9)
              << estimator->name() << " " << q.ToDebugString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorProperty, testing::Range(0, 12));

TEST(ExactEstimatorTest, MatchesCounter) {
  auto doc = ParseXmlString("<r><a><b/></a><a/></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  ExactEstimator exact(*doc);
  auto estimate = exact.Estimate(MustParse("a(b)", dict));
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 1.0);
  Twig empty;
  EXPECT_FALSE(exact.Estimate(empty).ok());
  EXPECT_EQ(exact.name(), "exact");
}

}  // namespace
}  // namespace treelattice
