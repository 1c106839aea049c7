#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_estimator.h"
#include "core/decomposition_record.h"
#include "datagen/random_tree.h"
#include "mining/lattice_builder.h"
#include "twig_spelling.h"
#include "workload/workload.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

using Options = RecursiveDecompositionEstimator::Options;
using Agg = RecursiveDecompositionEstimator::VoteAggregation;
using Source = DecompositionRecord::Source;

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

/// The modes --explain serves: recursive, voting, voting capped at 1 and
/// at 2 votes per level, and voting-median.
std::vector<Options> Modes() {
  return {{false, 0, Agg::kMean},
          {true, 0, Agg::kMean},
          {true, 1, Agg::kMean},
          {true, 2, Agg::kMean},
          {true, 0, Agg::kMedian}};
}

std::string ModeName(const Options& mode) {
  if (!mode.voting) return "recursive";
  return std::string(mode.aggregation == Agg::kMedian ? "voting-median"
                                                      : "voting") +
         " cap " + std::to_string(mode.max_votes_per_level);
}

/// Estimates `queries` in one EstimateBatch call, one record per query.
std::vector<EstimateResult> EstimateRecorded(
    BatchEstimator* batch, const std::vector<Twig>& queries,
    std::vector<DecompositionRecord>* records) {
  records->assign(queries.size(), DecompositionRecord());
  std::vector<EstimateOptions> options(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    options[i].record = &(*records)[i];
  }
  std::vector<EstimateResult> results(queries.size());
  EXPECT_TRUE(batch->EstimateBatch(queries, options, results).ok());
  return results;
}

std::vector<int> Union(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<int> Intersection(const std::vector<int>& a,
                              const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Checks that `record` is the decomposition that answered `estimate` for
/// `query` in `mode`: its root is the query and the estimate, bit for bit;
/// every distinct subset appears once; every vote is T1 * T2 / overlap of
/// the entries it names (0 when one is 0), over a split of its entry; and
/// every decomposed entry is the mean or median of its sorted votes.
void ExpectExplains(const DecompositionRecord& record, const Twig& query,
                    double estimate, const Options& mode,
                    const std::string& where) {
  SCOPED_TRACE(where + " " + query.ToDebugString());
  const std::vector<DecompositionRecord::Entry>& entries = record.entries;
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].value, estimate);
  EXPECT_EQ(entries[0].nodes.size(), static_cast<size_t>(query.size()));
  std::set<std::vector<int>> subsets;
  for (const DecompositionRecord::Entry& entry : entries) {
    EXPECT_TRUE(subsets.insert(entry.nodes).second) << "a subset twice";
    if (entry.source != Source::kDecomposition) {
      EXPECT_TRUE(entry.votes.empty());
      continue;
    }
    ASSERT_FALSE(entry.votes.empty());
    if (!mode.voting) {
      EXPECT_EQ(entry.votes.size(), 1u);
    } else if (mode.max_votes_per_level > 0) {
      EXPECT_LE(entry.votes.size(),
                static_cast<size_t>(mode.max_votes_per_level));
    }
    std::vector<double> votes;
    for (const DecompositionRecord::Vote& vote : entry.votes) {
      ASSERT_LT(vote.t1, entries.size());
      ASSERT_LT(vote.t2, entries.size());
      ASSERT_LT(vote.overlap, entries.size());
      const DecompositionRecord::Entry& t1 = entries[vote.t1];
      const DecompositionRecord::Entry& t2 = entries[vote.t2];
      const DecompositionRecord::Entry& overlap = entries[vote.overlap];
      EXPECT_EQ(t1.nodes.size() + 1, entry.nodes.size());
      EXPECT_EQ(t2.nodes.size() + 1, entry.nodes.size());
      EXPECT_EQ(Union(t1.nodes, t2.nodes), entry.nodes);
      EXPECT_EQ(Intersection(t1.nodes, t2.nodes), overlap.nodes);
      const double want = t1.value > 0.0 && t2.value > 0.0 && overlap.value > 0.0
                              ? t1.value * t2.value / overlap.value
                              : 0.0;
      EXPECT_EQ(vote.value, want);
      votes.push_back(vote.value);
    }
    double aggregate = 0.0;
    std::sort(votes.begin(), votes.end());
    if (mode.voting && mode.aggregation == Agg::kMedian) {
      const size_t mid = votes.size() / 2;
      aggregate = votes.size() % 2 == 1 ? votes[mid]
                                        : 0.5 * (votes[mid - 1] + votes[mid]);
    } else {
      for (double v : votes) aggregate += v;
      aggregate /= static_cast<double>(votes.size());
    }
    EXPECT_EQ(entry.value, aggregate);
  }
}

/// A random 6-label document's 3-lattice, and distinct positive queries of
/// sizes 5-8 in pairs: the workload's spelling and a shuffled one, taking
/// turns at coming first.
struct Workload {
  Document doc;
  LatticeSummary summary;
  std::vector<Twig> queries;
};

Document RandomDocument() {
  RandomTreeOptions tree;
  tree.seed = 1;
  tree.num_nodes = 2000;
  tree.num_labels = 6;
  return GenerateRandomTree(tree);
}

Workload MakeWorkload() {
  Document doc = RandomDocument();
  LatticeSummary summary = MustBuild(doc, 3);
  Workload w{std::move(doc), std::move(summary), {}};
  for (int size = 5; size <= 8; ++size) {
    WorkloadOptions options;
    options.seed = static_cast<uint64_t>(size);
    options.query_size = size;
    options.num_queries = 6;
    options.allow_duplicate_siblings = true;
    Result<std::vector<Twig>> queries =
        GeneratePositiveWorkload(w.doc, options);
    EXPECT_TRUE(queries.ok()) << queries.status().ToString();
    if (!queries.ok()) continue;
    for (const Twig& query : *queries) {
      const Twig shuffled = ShuffledSpelling(query, w.queries.size());
      const bool shuffled_first = (w.queries.size() / 2) % 2 == 1;
      w.queries.push_back(shuffled_first ? shuffled : query);
      w.queries.push_back(shuffled_first ? query : shuffled);
    }
  }
  return w;
}

TEST(ExplainTest, SummaryHitIsLeafNode) {
  auto doc = ParseXmlString("<r><a><b/></a><a/></r>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  BatchEstimator batch(&summary);
  std::vector<DecompositionRecord> records;
  std::vector<EstimateResult> results =
      EstimateRecorded(&batch, {MustParse("a(b)", dict)}, &records);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_EQ(records[0].entries.size(), 1u);
  const DecompositionRecord::Entry& root = records[0].entries[0];
  EXPECT_EQ(root.source, Source::kSummary);
  EXPECT_EQ(root.value, 1.0);
  EXPECT_EQ(root.nodes, (std::vector<int>{0, 1}));
  EXPECT_TRUE(root.votes.empty());
}

TEST(ExplainTest, DecompositionHasThreeChildren) {
  std::string xml = "<r>";
  for (int i = 0; i < 4; ++i) xml += "<x><y><w/></y><z/></x>";
  xml += "</r>";
  auto doc = ParseXmlString(xml);
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  BatchEstimator batch(&summary);
  const Twig query = MustParse("x(y(w),z)", dict);
  std::vector<DecompositionRecord> records;
  std::vector<EstimateResult> results =
      EstimateRecorded(&batch, {query}, &records);
  ASSERT_TRUE(results[0].status.ok());
  const DecompositionRecord::Entry& root = records[0].entries[0];
  EXPECT_EQ(root.source, Source::kDecomposition);
  ASSERT_EQ(root.votes.size(), 1u);
  // Each vote names T1, T2 and their overlap, all read from the summary.
  const DecompositionRecord::Vote& vote = root.votes[0];
  for (uint32_t index : {vote.t1, vote.t2, vote.overlap}) {
    EXPECT_EQ(records[0].entries[index].source, Source::kSummary);
  }
  ExpectExplains(records[0], query, results[0].estimate, Options(), "");
}

// The record is written by the call that answers, so its root is the
// answer bit for bit, in every mode and for every spelling.
TEST(ExplainTest, RootEstimateMatchesEstimator) {
  const Workload w = MakeWorkload();
  ASSERT_GE(w.queries.size(), 40u);
  for (const Options& mode : Modes()) {
    BatchEstimator batch(&w.summary, mode);
    for (const Twig& query : w.queries) {
      std::vector<DecompositionRecord> records;
      std::vector<EstimateResult> results =
          EstimateRecorded(&batch, {query}, &records);
      ASSERT_TRUE(results[0].status.ok());
      ExpectExplains(records[0], query, results[0].estimate, mode,
                     ModeName(mode) + " alone");
    }
  }
}

// Inside a batch every query's record explains its batched answer, which
// can read sub-twig values that earlier queries computed and still equals
// the query's lone answer. The second spelling of each pair is a
// duplicate: it runs as its first occurrence, whose record explains its
// answer, and leaves its own record untouched.
TEST(ExplainTest, RootEstimateMatchesBatchedEstimate) {
  const Workload w = MakeWorkload();
  const std::vector<Twig>& queries = w.queries;
  for (const Options& mode : Modes()) {
    BatchEstimator batch(&w.summary, mode);
    std::vector<DecompositionRecord> records;
    std::vector<EstimateResult> results =
        EstimateRecorded(&batch, queries, &records);
    size_t differ_alone = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      EXPECT_EQ(results[i].duplicate, i % 2 == 1);
      if (results[i].duplicate) {
        EXPECT_TRUE(records[i].entries.empty());
        EXPECT_EQ(records[i - 1].entries[0].value, results[i].estimate);
        continue;
      }
      ExpectExplains(records[i], queries[i], results[i].estimate, mode,
                     ModeName(mode) + " batched #" + std::to_string(i));
      std::vector<DecompositionRecord> alone_record;
      const double alone =
          EstimateRecorded(&batch, {queries[i]}, &alone_record)[0].estimate;
      if (alone != results[i].estimate) ++differ_alone;
    }
    EXPECT_EQ(differ_alone, 0u) << ModeName(mode);
  }
}

// A batch neighbour cannot change an answer: the batch shares one value
// per shape, and that value is a function of the shape. Here the
// neighbour's spelling of a shared sub-twig once changed the query's
// answer in the last digits under voting and by 4x without it; each
// record explains the answer of its own call.
TEST(ExplainTest, BatchedAnswerReadFromAnEarlierQueryIsItsLoneAnswer) {
  Document doc = RandomDocument();
  LatticeSummary summary = MustBuild(doc, 3);
  LabelDict* dict = &doc.mutable_dict();
  struct Case {
    Options mode;
    const char* neighbour;
    const char* query;
  };
  const Case cases[] = {
      {{false, 0, Agg::kMean}, "l3(l1(l5,l4,l0),l0)", "l2(l3(l0,l1(l0,l4,l5)))"},
      {{true, 0, Agg::kMean}, "l2(l3(l0),l1(l1),l0)", "l0(l2(l0,l1(l1),l3(l0)))"},
  };
  for (const Case& c : cases) {
    const Twig neighbour = MustParse(c.neighbour, dict);
    const Twig query = MustParse(c.query, dict);
    BatchEstimator batch(&summary, c.mode);
    std::vector<DecompositionRecord> alone_records;
    std::vector<EstimateResult> alone =
        EstimateRecorded(&batch, {query}, &alone_records);
    std::vector<DecompositionRecord> batch_records;
    std::vector<EstimateResult> batched =
        EstimateRecorded(&batch, {neighbour, query}, &batch_records);
    ASSERT_TRUE(alone[0].status.ok() && batched[1].status.ok());
    EXPECT_EQ(alone[0].estimate, batched[1].estimate) << ModeName(c.mode);
    ExpectExplains(alone_records[0], query, alone[0].estimate, c.mode,
                   ModeName(c.mode) + " alone");
    ExpectExplains(batch_records[1], query, batched[1].estimate, c.mode,
                   ModeName(c.mode) + " batched");
    // The batched record reads a value the neighbour left in the batch
    // memo.
    const std::string text = batch_records[1].Render(query, *dict);
    EXPECT_NE(text.find("memo: from an earlier query of the batch]"),
              std::string::npos)
        << text;
  }
}

TEST(ExplainTest, RenderIsIndentedAndComplete) {
  auto doc = ParseXmlString(
      "<catalog><items>"
      "<item><name/><price/></item><item><name/><price/></item>"
      "<item><name/></item>"
      "</items><vendors><vendor><name/></vendor></vendors></catalog>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  BatchEstimator batch(&summary, Options{true, 0, Agg::kMean});
  const std::vector<Twig> queries = {
      MustParse("catalog(items(item(name)),vendors)", dict),
      MustParse("items(item(name),item(price))", dict)};
  std::vector<DecompositionRecord> records;
  std::vector<EstimateResult> results =
      EstimateRecorded(&batch, queries, &records);
  ASSERT_TRUE(results[0].status.ok() && results[1].status.ok());
  // The root line is the only unindented one and ends in its [...] tag;
  // each sub-twig is expanded where it first appears and referenced
  // after that.
  EXPECT_EQ(records[0].Render(queries[0], *dict),
            "catalog(items(item(name)),vendors) ~= 3   [#0 1 vote]\n"
            "  vote 1 = T1 * T2 / overlap ~= 3\n"
            "    T1 catalog(items(item(name))) ~= 3   [#1 1 vote]\n"
            "      vote 1 = T1 * T2 / overlap ~= 3\n"
            "        T1 catalog(items(item)) = 3   [#2 summary]\n"
            "        T2 items(item(name)) = 3   [#3 summary]\n"
            "        overlap items(item) = 3   [#4 summary]\n"
            "    T2 catalog(items(item),vendors) ~= 3   [#5 1 vote]\n"
            "      vote 1 = T1 * T2 / overlap ~= 3\n"
            "        T1 catalog(items(item))   [see #2]\n"
            "        T2 catalog(items,vendors) = 1   [#6 summary]\n"
            "        overlap catalog(items) = 1   [#7 summary]\n"
            "    overlap catalog(items(item))   [see #2]\n");
  // The second query reads the first one's sub-twig values.
  const std::string text = records[1].Render(queries[1], *dict);
  EXPECT_NE(text.find("memo: from an earlier query of the batch]"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "items(item(name),item(price)) ~= 4   [#0 1 vote]");
}

// A same-shaped sub-twig of the same query names the entry it shares a
// value with; the root prints 17 significant digits.
TEST(ExplainTest, MemoEntryNamesTheSameShapedSubTwig) {
  auto doc = ParseXmlString(
      "<items><item><name/><price/></item><item><name/><price/></item>"
      "<item><name/></item></items>");
  ASSERT_TRUE(doc.ok());
  LabelDict* dict = &doc->mutable_dict();
  LatticeSummary summary = MustBuild(*doc, 3);
  BatchEstimator batch(&summary, Options{true, 0, Agg::kMean});
  const Twig query = MustParse("items(item(name,price),item(name,price))", dict);
  std::vector<DecompositionRecord> records;
  std::vector<EstimateResult> results =
      EstimateRecorded(&batch, {query}, &records);
  ASSERT_TRUE(results[0].status.ok());
  ExpectExplains(records[0], query, results[0].estimate,
                 Options{true, 0, Agg::kMean}, "");
  const std::string text = records[0].Render(query, *dict);
  char root[64];
  std::snprintf(root, sizeof(root), " ~= %.17g   [#0 ", results[0].estimate);
  EXPECT_NE(text.find(root), std::string::npos) << text;
  EXPECT_NE(text.find("memo: same shape as #"), std::string::npos) << text;
  EXPECT_EQ(text.find("earlier query"), std::string::npos) << text;
}

TEST(ExplainTest, EmptyQueryRejected) {
  Document doc;
  doc.AddNode("r", kInvalidNode);
  LatticeSummary summary = MustBuild(doc, 3);
  BatchEstimator batch(&summary);
  std::vector<DecompositionRecord> records;
  std::vector<EstimateResult> results =
      EstimateRecorded(&batch, {Twig()}, &records);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_TRUE(records[0].entries.empty());
}

}  // namespace
}  // namespace treelattice
