// Batched estimation suite (DESIGN.md §14): BatchEstimator's bit-identity
// with the sequential path (including under governed budgets and
// cancellation, and on a generated stream with duplicates at several batch
// sizes), the array request-line protocol, and the Server's whole-line
// admission/shed semantics.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_estimator.h"
#include "core/estimate_scratch.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "io/env.h"
#include "mining/lattice_builder.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "util/deadline.h"
#include "util/json.h"
#include "workload/workload.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace {

/// A summary complete through level 2 with a wide star under `a`, shared
/// by every estimator test: small enough to reason about, branchy enough
/// that size-3+ queries actually recurse.
void FillTestSummary(LatticeSummary* summary, LabelDict* dict) {
  auto insert = [&](const std::string& text, uint64_t count) {
    Result<Twig> twig = Twig::Parse(text, dict);
    ASSERT_TRUE(twig.ok()) << twig.status().ToString();
    ASSERT_TRUE(summary->Insert(*twig, count).ok());
  };
  insert("a", 10);
  insert("b", 8);
  insert("c", 6);
  insert("a(b)", 5);
  insert("b(c)", 4);
  insert("a(c)", 3);
  for (int i = 0; i < 12; ++i) {
    const std::string child = "t" + std::to_string(i);
    insert(child, 20 + static_cast<uint64_t>(i));
    insert("a(" + child + ")", 3 + static_cast<uint64_t>(i));
  }
  summary->set_complete_through_level(2);
}

std::vector<Twig> ParseAll(const std::vector<std::string>& texts,
                           LabelDict* dict) {
  std::vector<Twig> twigs;
  for (const std::string& text : texts) {
    Result<Twig> twig = Twig::Parse(text, dict);
    EXPECT_TRUE(twig.ok()) << text << ": " << twig.status().ToString();
    twigs.push_back(std::move(*twig));
  }
  return twigs;
}

class BatchEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    summary_ = std::make_unique<LatticeSummary>(2);
    FillTestSummary(summary_.get(), &dict_);
  }

  /// The workload every bit-identity check runs: duplicates, summary
  /// hits, provably-zero smalls, deep recursive shapes, and unknowns.
  std::vector<Twig> Workload() {
    return ParseAll({"a(b)", "a(b,c)", "a(b)", "a(t0,t1,t2)", "b(c)",
                     "a(b(c),t4)", "a(t0,t1,t2)", "nosuch(labels)",
                     "a(t5,t6,t7,t8)", "c"},
                    &dict_);
  }

  void CheckBitIdentical(RecursiveDecompositionEstimator::Options options) {
    std::vector<Twig> queries = Workload();
    RecursiveDecompositionEstimator sequential(summary_.get(), options);
    EstimateScratch scratch;
    EstimateOptions sequential_options;
    sequential_options.scratch = &scratch;
    std::vector<double> expected;
    for (const Twig& query : queries) {
      Result<double> value = sequential.Estimate(query, sequential_options);
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      expected.push_back(*value);
    }

    BatchEstimator batch(summary_.get(), options);
    std::vector<EstimateResult> results(queries.size());
    ASSERT_TRUE(batch.EstimateBatch(queries, EstimateOptions(), results).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << i << ": " << results[i].status.ToString();
      // Exact bits, not approximate: the shared batch memo must be
      // indistinguishable from per-query fresh memos.
      EXPECT_EQ(results[i].estimate, expected[i]) << "query " << i;
    }
  }

  LabelDict dict_;
  std::unique_ptr<LatticeSummary> summary_;
};

TEST_F(BatchEstimatorTest, BitIdenticalToSequentialNonVoting) {
  CheckBitIdentical(RecursiveDecompositionEstimator::Options());
}

TEST_F(BatchEstimatorTest, BitIdenticalToSequentialVotingMean) {
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  CheckBitIdentical(
      RecursiveDecompositionEstimator::Options{true, 0, Agg::kMean});
}

TEST_F(BatchEstimatorTest, BitIdenticalToSequentialVotingMedian) {
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  CheckBitIdentical(
      RecursiveDecompositionEstimator::Options{true, 0, Agg::kMedian});
}

TEST_F(BatchEstimatorTest, RepeatedCallsReuseArenaWithoutDrift) {
  // Second and third batches over the same estimator reuse the dedup
  // table and the memo; values must not drift run to run.
  std::vector<Twig> queries = Workload();
  BatchEstimator batch(summary_.get());
  std::vector<EstimateResult> first(queries.size());
  ASSERT_TRUE(batch.EstimateBatch(queries, EstimateOptions(), first).ok());
  for (int round = 0; round < 3; ++round) {
    std::vector<EstimateResult> again(queries.size());
    ASSERT_TRUE(batch.EstimateBatch(queries, EstimateOptions(), again).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(again[i].estimate, first[i].estimate);
    }
  }
}

TEST(BatchStreamTest, GeneratedVotingStreamMatchesSequentialAtEveryBatchSize) {
  // A stream of size-8 voting queries cycling a pool of 12: a batch larger
  // than the pool carries duplicates (the dedup case) and consecutive
  // batches repeat structure (the shared-memo case). Every batch size must
  // reproduce the sequential estimates bit for bit.
  DatasetOptions data;
  data.scale = 100;
  Document doc = GenerateXmark(data);
  LatticeBuildOptions build;
  build.max_level = 3;
  Result<LatticeSummary> summary = BuildLattice(doc, build, nullptr);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  WorkloadOptions workload;
  workload.query_size = 8;
  workload.num_queries = 12;
  Result<std::vector<Twig>> pool = GeneratePositiveWorkload(doc, workload);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool->size(), 12u);
  std::vector<Twig> stream;
  for (size_t i = 0; i < 128; ++i) stream.push_back((*pool)[i % pool->size()]);

  RecursiveDecompositionEstimator::Options voting;
  voting.voting = true;
  RecursiveDecompositionEstimator sequential(&*summary, voting);
  EstimateScratch scratch;
  EstimateOptions sequential_options;
  sequential_options.scratch = &scratch;
  std::vector<double> expected;
  for (const Twig& query : stream) {
    Result<double> value = sequential.Estimate(query, sequential_options);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    expected.push_back(*value);
  }

  BatchEstimator batch(&*summary, voting);
  for (size_t batch_size : {1, 8, 64}) {
    std::vector<EstimateResult> results(stream.size());
    for (size_t start = 0; start < stream.size(); start += batch_size) {
      const size_t n = std::min(batch_size, stream.size() - start);
      ASSERT_TRUE(batch
                      .EstimateBatch(
                          std::span<const Twig>(stream.data() + start, n),
                          EstimateOptions(),
                          std::span<EstimateResult>(results.data() + start, n))
                      .ok());
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_EQ(results[i].estimate, expected[i])
          << "batch size " << batch_size << ", query " << i;
    }
  }
}

TEST_F(BatchEstimatorTest, SpanMismatchAndEmptyBatchAndEmptyQuery) {
  BatchEstimator batch(summary_.get());
  std::vector<Twig> queries = ParseAll({"a(b)"}, &dict_);
  std::vector<EstimateResult> wrong(2);
  EXPECT_FALSE(batch.EstimateBatch(queries, EstimateOptions(), wrong).ok());

  EXPECT_TRUE(batch
                  .EstimateBatch(std::span<const Twig>(),
                                 EstimateOptions(),
                                 std::span<EstimateResult>())
                  .ok());

  std::vector<Twig> with_empty;
  with_empty.push_back(queries[0]);
  with_empty.push_back(Twig());
  std::vector<EstimateResult> results(2);
  ASSERT_TRUE(batch.EstimateBatch(with_empty, EstimateOptions(), results).ok());
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
}

TEST_F(BatchEstimatorTest, SharedGovernorTripsAndReportsWorkSteps) {
  // A step budget the star query cannot meet: the batch must come back
  // with per-item failures (never a wrong value) and report steps spent.
  std::vector<Twig> queries =
      ParseAll({"a(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10,t11)"}, &dict_);
  using Agg = RecursiveDecompositionEstimator::VoteAggregation;
  BatchEstimator batch(
      summary_.get(),
      RecursiveDecompositionEstimator::Options{true, 0, Agg::kMean});
  EstimateOptions options;
  options.max_work_steps = 50;
  uint64_t steps = 0;
  options.work_steps = &steps;
  std::vector<EstimateResult> results(queries.size());
  ASSERT_TRUE(batch.EstimateBatch(queries, options, results).ok());
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_GT(steps, 0u);
}

TEST_F(BatchEstimatorTest, CancelledBatchFailsEveryRecursiveItem) {
  CancelToken cancel;
  cancel.Cancel();
  std::vector<Twig> queries = ParseAll({"a(b,c)", "a(t0,t1,t2)"}, &dict_);
  BatchEstimator batch(summary_.get());
  EstimateOptions options;
  options.cancel = &cancel;
  std::vector<EstimateResult> results(queries.size());
  ASSERT_TRUE(batch.EstimateBatch(queries, options, results).ok());
  for (const EstimateResult& result : results) {
    EXPECT_FALSE(result.status.ok());
  }
}

TEST_F(BatchEstimatorTest, GovernedValuesMatchSequentialWhenBudgetSuffices) {
  // A budget generous enough to never trip: governed batches must still
  // produce the sequential bits (trip points may differ only when a trip
  // actually happens).
  std::vector<Twig> queries = Workload();
  RecursiveDecompositionEstimator sequential(summary_.get());
  EstimateScratch scratch;
  std::vector<double> expected;
  for (const Twig& query : queries) {
    EstimateOptions options;
    options.scratch = &scratch;
    Result<double> value = sequential.Estimate(query, options);
    ASSERT_TRUE(value.ok());
    expected.push_back(*value);
  }
  BatchEstimator batch(summary_.get());
  EstimateOptions options;
  options.max_work_steps = 100000000;
  std::vector<EstimateResult> results(queries.size());
  ASSERT_TRUE(batch.EstimateBatch(queries, options, results).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].estimate, expected[i]) << "query " << i;
  }
}

TEST(BatchRequestLineTest, DetectsAndParsesStringsAndEnvelopes) {
  const char* line =
      R"json( ["a(b)", {"query":"b(c)","deadline_ms":5,)json"
      R"json("max_steps":100,"id":7}])json";
  serve::ServeBatch batch;
  ASSERT_TRUE(serve::ParseRequestLine(line, 0, &batch).ok());
  EXPECT_FALSE(batch.scalar);
  ASSERT_EQ(batch.items.size(), 2u);
  EXPECT_EQ(batch.items[0].query, "a(b)");
  EXPECT_EQ(batch.items[1].query, "b(c)");
  EXPECT_DOUBLE_EQ(batch.items[1].deadline_millis, 5.0);
  EXPECT_EQ(batch.items[1].max_work_steps, 100u);
  EXPECT_EQ(batch.items[1].id, 7u);

  // Bare queries and envelopes are scalar lines of one query.
  for (const char* scalar : {"a(b)", R"({"query":"a"})"}) {
    ASSERT_TRUE(serve::ParseRequestLine(scalar, 0, &batch).ok()) << scalar;
    EXPECT_TRUE(batch.scalar) << scalar;
    EXPECT_EQ(batch.items.size(), 1u) << scalar;
  }
}

TEST(BatchRequestLineTest, RejectsMalformedBatches) {
  for (const char* line :
       {"[]", "[42]", R"([""])", R"([{"id":1}])", "[\"a\","}) {
    serve::ServeBatch batch;
    EXPECT_FALSE(serve::ParseRequestLine(line, 0, &batch).ok()) << line;
    // Rejected array lines still report their kind.
    EXPECT_FALSE(batch.scalar) << line;
  }
  // Per-line query cap: 3 queries against a limit of 2.
  serve::ServeBatch capped;
  Status status =
      serve::ParseRequestLine(R"(["a","b","c"])", /*max_items=*/2, &capped);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(BatchResponseJsonTest, ToJsonLineIsOneArrayOfResponseObjects) {
  serve::ServeBatchResponse response;
  response.scalar = false;
  response.items.resize(2);
  response.items[0].id = 1;
  response.items[0].ok = true;
  response.items[0].estimate = 4.5;
  response.items[1].id = 2;
  response.items[1].error_code = "InvalidArgument";
  response.items[1].error_message = "bad";
  const std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Result<JsonValue> json = ParseJson(line);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json->array.size(), 2u);
  EXPECT_TRUE(json->array[0].Find("ok")->bool_value);
  EXPECT_DOUBLE_EQ(json->array[0].Find("estimate")->number_value, 4.5);
  EXPECT_FALSE(json->array[1].Find("ok")->bool_value);

  // A scalar line answers with its one object, not an array of one.
  response.scalar = true;
  response.items.resize(1);
  EXPECT_EQ(response.ToJsonLine(), response.items[0].ToJsonLine());
}

/// Collects whole-batch responses under a lock.
struct BatchCollector {
  std::mutex mu;
  std::vector<serve::ServeBatchResponse> responses;

  serve::Server::ResponseSink Sink() {
    return [this](serve::ServeBatchResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    };
  }

  size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return responses.size();
  }
};

/// An array line carrying `queries`, with ids 1..N when `with_ids`.
serve::ServeBatch ArrayLine(const std::vector<std::string>& queries,
                            bool with_ids = false) {
  serve::ServeBatch batch;
  batch.scalar = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    serve::ServeRequest item;
    item.id = with_ids ? i + 1 : 0;
    item.query = queries[i];
    batch.items.push_back(std::move(item));
  }
  return batch;
}

class ServerBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTempPath("tl_batch_server.tls");
    LabelDict dict;
    LatticeSummary summary(2);
    FillTestSummary(&summary, &dict);
    ASSERT_TRUE(SaveSummaryV2(summary, &dict, Env::Default(), path_).ok());
    serve::ReloadOptions options;
    options.backoff_millis = 0.0;
    ASSERT_TRUE(
        serve::ReloadSummary(Env::Default(), path_, options, &snapshots_)
            .ok());
  }

  void TearDown() override {
    ASSERT_TRUE(Env::Default()->DeleteFile(path_).ok());
  }

  std::string path_;
  serve::SnapshotHolder snapshots_;
};

TEST_F(ServerBatchTest, BatchMatchesSinglesBitwiseWithDedupAndErrors) {
  const std::vector<std::string> queries = {"a(b)",  "a(b,c)", "a(b)",
                                            "((((",  "b(c)",   "nosuch(x)"};
  // Reference run: the same queries as scalar lines through their own
  // server.
  std::vector<serve::ServeResponse> singles(queries.size());
  {
    std::mutex mu;
    serve::Server server(&snapshots_, serve::ServerOptions(),
                         [&](serve::ServeBatchResponse response) {
                           std::lock_guard<std::mutex> lock(mu);
                           const serve::ServeResponse& item =
                               response.items.front();
                           singles[item.id - 1] = item;
                         });
    for (size_t i = 0; i < queries.size(); ++i) {
      serve::ServeBatch line = ArrayLine({queries[i]});
      line.scalar = true;
      line.items[0].id = i + 1;
      ASSERT_TRUE(server.Submit(std::move(line)));
    }
    server.Shutdown();
  }

  BatchCollector batches;
  serve::Server server(&snapshots_, serve::ServerOptions(), batches.Sink());
  ASSERT_TRUE(server.Submit(ArrayLine(queries, /*with_ids=*/true)));
  server.Shutdown();

  ASSERT_EQ(batches.responses.size(), 1u);
  const serve::ServeBatchResponse& response = batches.responses[0];
  ASSERT_EQ(response.items.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const serve::ServeResponse& item = response.items[i];
    EXPECT_EQ(item.id, i + 1);
    EXPECT_EQ(item.query, queries[i]);
    EXPECT_EQ(item.ok, singles[i].ok) << queries[i];
    if (item.ok) {
      // Exact bits: the batch pipeline (dedup + shared memo + cache
      // filter) must be invisible in the values.
      EXPECT_EQ(item.estimate, singles[i].estimate) << queries[i];
      EXPECT_EQ(item.rung, singles[i].rung);
    } else {
      EXPECT_EQ(item.error_code, singles[i].error_code) << queries[i];
    }
  }
  // The duplicate "a(b)" items must agree with each other too.
  EXPECT_EQ(response.items[0].estimate, response.items[2].estimate);

  serve::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.ok + stats.errors, queries.size());
}

TEST_F(ServerBatchTest, SecondIdenticalBatchAnswersFromTheCache) {
  BatchCollector batches;
  serve::Server server(&snapshots_, serve::ServerOptions(), batches.Sink());
  // The second line goes in only after the first is answered: with four
  // workers the two could otherwise run at the same time and both miss.
  ASSERT_TRUE(server.Submit(ArrayLine({"a(b,c)", "a(t0,t1,t2)"})));
  while (batches.size() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Submit(ArrayLine({"a(b,c)", "a(t0,t1,t2)"})));
  server.Shutdown();

  ASSERT_EQ(batches.responses.size(), 2u);
  const auto& first = batches.responses[0].items;
  const auto& second = batches.responses[1].items;
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok);
    ASSERT_TRUE(second[i].ok);
    EXPECT_EQ(second[i].estimate, first[i].estimate);
    EXPECT_FALSE(first[i].cached);
    EXPECT_TRUE(second[i].cached) << i;
  }
}

TEST_F(ServerBatchTest, WholeBatchShedsAtomicallyWhenQueueIsFull) {
  serve::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.worker_delay_millis = 20.0;  // hold the worker so the queue fills
  BatchCollector batches;
  serve::Server server(&snapshots_, options, batches.Sink());
  int admitted = 0;
  for (int b = 0; b < 8; ++b) {
    if (server.Submit(ArrayLine({"a(b)", "a(b)", "a(b)"}, /*with_ids=*/true))) {
      ++admitted;
    }
  }
  server.Shutdown();

  ASSERT_EQ(batches.responses.size(), 8u);  // exactly one response per batch
  int shed_batches = 0;
  for (const serve::ServeBatchResponse& response : batches.responses) {
    ASSERT_EQ(response.items.size(), 3u);
    const bool first_shed = !response.items[0].ok &&
                            response.items[0].error_code ==
                                "ResourceExhausted";
    for (const serve::ServeResponse& item : response.items) {
      // Never a partial batch: all three shed together or none did.
      EXPECT_EQ(!item.ok && item.error_code == "ResourceExhausted",
                first_shed);
    }
    if (first_shed) ++shed_batches;
  }
  EXPECT_EQ(shed_batches, 8 - admitted);
  EXPECT_GT(shed_batches, 0) << "queue never filled; shedding untested";
  serve::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(admitted) * 3u);
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(8 - admitted) * 3u);
}

TEST_F(ServerBatchTest, GovernedBatchDegradesPerItemNeverWrongValues) {
  // A per-item step budget the star query cannot meet on the primary
  // rung: the ladder answers degraded (or errors), and cheap items in the
  // same batch still answer exactly.
  serve::ServerOptions options;
  options.default_max_work_steps = 1000;
  BatchCollector batches;
  serve::Server server(&snapshots_, options, batches.Sink());
  ASSERT_TRUE(server.Submit(
      ArrayLine({"a(b)", "a(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10,t11)"})));
  server.Shutdown();

  ASSERT_EQ(batches.responses.size(), 1u);
  const auto& items = batches.responses[0].items;
  ASSERT_EQ(items.size(), 2u);
  ASSERT_TRUE(items[0].ok) << items[0].error_message;
  EXPECT_DOUBLE_EQ(items[0].estimate, 5.0);  // exact summary count for a(b)
  ASSERT_TRUE(items[1].ok) << items[1].error_message;
  EXPECT_TRUE(items[1].degraded);
  EXPECT_NE(items[1].rung, "primary");
}

TEST_F(ServerBatchTest, CancelledBatchStillAnswersEveryItemExactlyOnce) {
  serve::ServerOptions options;
  options.workers = 1;
  options.worker_delay_millis = 5.0;
  BatchCollector batches;
  serve::Server server(&snapshots_, options, batches.Sink());
  serve::ServeBatch batch =
      ArrayLine(std::vector<std::string>(4, "a(t0,t1,t2,t3,t4,t5)"));
  batch.cancel = std::make_shared<CancelToken>();
  std::shared_ptr<CancelToken> cancel = batch.cancel;
  ASSERT_TRUE(server.Submit(std::move(batch)));
  cancel->Cancel();  // may land before, during, or after estimation
  server.Shutdown();

  ASSERT_EQ(batches.responses.size(), 1u);
  // Exactly one terminal outcome per item, whatever the cancel race did:
  // every item either answered or failed, none vanished.
  EXPECT_EQ(batches.responses[0].items.size(), 4u);
  serve::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.ok + stats.errors, 4u);
}

}  // namespace
}  // namespace treelattice
