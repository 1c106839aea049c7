// Serving-layer suite: snapshot holder semantics, hot reload through the
// fault-injecting Env (retries, salvage policy, keep-old-on-failure), the
// request-line protocol, and the Server itself — round trips, load
// shedding, degraded answers under budget, and exactly-once drain.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/env.h"
#include "io/fault_env.h"
#include "core/estimate_cache.h"
#include "obs/metrics.h"
#include "serve/request_trace.h"
#include "serve/server.h"
#include "serve/slow_log.h"
#include "serve/snapshot.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "util/hash.h"
#include "util/json.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace serve {
namespace {

/// Builds a small summary (complete through level 2) and saves it as a v2
/// container at `path`, returning the dict used.
LabelDict WriteTestSummary(Env* env, const std::string& path,
                           uint64_t scale = 1) {
  LabelDict dict;
  LatticeSummary summary(2);
  auto insert = [&](const std::string& text, uint64_t count) {
    Result<Twig> twig = Twig::Parse(text, &dict);
    ASSERT_TRUE(twig.ok()) << twig.status().ToString();
    ASSERT_TRUE(summary.Insert(*twig, count * scale).ok());
  };
  insert("a", 10);
  insert("b", 8);
  insert("c", 6);
  insert("a(b)", 5);
  insert("b(c)", 4);
  // Wide-star support: a query over many distinct children of `a` makes
  // the voting recursion combinatorially expensive while the fixed-size
  // sweep stays a few hundred lookups — the gap the degradation tests
  // aim their step budgets into.
  for (int i = 0; i < 12; ++i) {
    const std::string child = "t" + std::to_string(i);
    insert(child, 20 + static_cast<uint64_t>(i));
    insert("a(" + child + ")", 3 + static_cast<uint64_t>(i));
  }
  summary.set_complete_through_level(2);
  EXPECT_TRUE(SaveSummaryV2(summary, &dict, env, path).ok());
  return dict;
}

/// A scalar request line carrying `request`.
ServeBatch Scalar(ServeRequest request) {
  ServeBatch line;
  line.items.push_back(std::move(request));
  return line;
}

TEST(SnapshotHolderTest, EmptyUntilFirstSwapThenVersioned) {
  SnapshotHolder holder;
  EXPECT_EQ(holder.Get(), nullptr);
  EXPECT_EQ(holder.version(), 0);

  LabelDict dict;
  auto snapshot =
      std::make_shared<SummarySnapshot>(LatticeSummary(2), LabelDict(dict));
  EXPECT_EQ(holder.Swap(snapshot), 1);
  ASSERT_NE(holder.Get(), nullptr);
  EXPECT_EQ(holder.Get()->version, 1);

  auto second =
      std::make_shared<SummarySnapshot>(LatticeSummary(2), LabelDict(dict));
  EXPECT_EQ(holder.Swap(second), 2);
  EXPECT_EQ(holder.version(), 2);
}

TEST(SnapshotHolderTest, InFlightReadersKeepTheirSnapshot) {
  SnapshotHolder holder;
  LabelDict dict;
  holder.Swap(
      std::make_shared<SummarySnapshot>(LatticeSummary(2), LabelDict(dict)));
  std::shared_ptr<const SummarySnapshot> in_flight = holder.Get();
  holder.Swap(
      std::make_shared<SummarySnapshot>(LatticeSummary(2), LabelDict(dict)));
  EXPECT_EQ(in_flight->version, 1);       // untouched by the swap
  EXPECT_EQ(holder.Get()->version, 2);    // new readers see the new one
}

TEST(ReloadTest, LoadsV2SummaryWithEmbeddedDict) {
  const std::string path = UniqueTempPath("tl_serve_reload_ok.tls");
  WriteTestSummary(Env::Default(), path);

  SnapshotHolder holder;
  ReloadOptions options;
  options.backoff_millis = 0.0;
  ASSERT_TRUE(ReloadSummary(Env::Default(), path, options, &holder).ok());
  std::shared_ptr<const SummarySnapshot> snapshot = holder.Get();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1);
  EXPECT_FALSE(snapshot->salvaged);
  EXPECT_GT(snapshot->summary.NumPatterns(), 0u);
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

TEST(ReloadTest, ReadFaultKeepsPreviousSnapshotAndReportsError) {
  const std::string path = UniqueTempPath("tl_serve_reload_fault.tls");
  WriteTestSummary(Env::Default(), path);

  FaultInjectingEnv env(Env::Default());
  SnapshotHolder holder;
  ReloadOptions options;
  options.attempts = 3;
  options.backoff_millis = 0.0;
  ASSERT_TRUE(ReloadSummary(&env, path, options, &holder).ok());
  const int64_t reads_after_first = env.reads();

  env.config().fail_read = true;
  Status failed = ReloadSummary(&env, path, options, &holder);
  EXPECT_FALSE(failed.ok());
  // All three attempts actually hit the Env before giving up.
  EXPECT_GT(env.reads(), reads_after_first);
  // The serving snapshot is still the good one from before the fault.
  ASSERT_NE(holder.Get(), nullptr);
  EXPECT_EQ(holder.Get()->version, 1);
  EXPECT_EQ(holder.version(), 1);

  // The fault heals; the next reload succeeds and bumps the version.
  env.config().fail_read = false;
  EXPECT_TRUE(ReloadSummary(&env, path, options, &holder).ok());
  EXPECT_EQ(holder.Get()->version, 2);
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

TEST(ReloadTest, SalvagedLoadRejectedUnlessAccepted) {
  const std::string path = UniqueTempPath("tl_serve_reload_salvage.tls");
  WriteTestSummary(Env::Default(), path);

  // Truncate the tail: the v2 container salvages the intact prefix.
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &bytes).ok());
  ASSERT_GT(bytes.size(), 24u);
  ASSERT_TRUE(WriteFileAtomic(Env::Default(), path,
                              bytes.substr(0, bytes.size() - 16))
                  .ok());

  SnapshotHolder holder;
  ReloadOptions strict;
  strict.attempts = 1;
  strict.backoff_millis = 0.0;
  // Hot-reload policy: a damaged file must not replace a good snapshot.
  Status rejected = ReloadSummary(Env::Default(), path, strict, &holder);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(holder.Get(), nullptr);

  // Startup policy: a salvaged snapshot beats not serving at all.
  ReloadOptions lenient = strict;
  lenient.accept_salvaged = true;
  Status accepted = ReloadSummary(Env::Default(), path, lenient, &holder);
  if (accepted.ok()) {
    ASSERT_NE(holder.Get(), nullptr);
    EXPECT_TRUE(holder.Get()->salvaged);
  } else {
    // Some truncations destroy the dictionary section too; then even the
    // lenient load fails, and the holder must still be empty, not torn.
    EXPECT_EQ(holder.Get(), nullptr);
  }
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

TEST(RequestLineTest, BareQueryAndJsonEnvelope) {
  ServeBatch bare;
  ASSERT_TRUE(ParseRequestLine("  a(b,c)\r\n", 0, &bare).ok());
  EXPECT_TRUE(bare.scalar);
  ASSERT_EQ(bare.items.size(), 1u);
  EXPECT_EQ(bare.items[0].query, "a(b,c)");
  EXPECT_EQ(bare.items[0].id, 0u);
  EXPECT_EQ(bare.items[0].deadline_millis, 0.0);

  ServeBatch envelope;
  ASSERT_TRUE(ParseRequestLine(R"({"query":"/a/b[c]","deadline_ms":25.5,)"
                               R"("max_steps":1000,"id":7})",
                               0, &envelope)
                  .ok());
  EXPECT_TRUE(envelope.scalar);
  ASSERT_EQ(envelope.items.size(), 1u);
  EXPECT_EQ(envelope.items[0].query, "/a/b[c]");
  EXPECT_DOUBLE_EQ(envelope.items[0].deadline_millis, 25.5);
  EXPECT_EQ(envelope.items[0].max_work_steps, 1000u);
  EXPECT_EQ(envelope.items[0].id, 7u);
}

TEST(RequestLineTest, MalformedInputsRejectedCleanly) {
  auto parses = [](std::string_view line) {
    ServeBatch batch;
    return ParseRequestLine(line, 0, &batch).ok();
  };
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("   \r\n"));
  EXPECT_FALSE(parses("{not json"));
  EXPECT_FALSE(parses("{\"no_query\":1}"));
  EXPECT_FALSE(parses("{\"query\":\"\"}"));
  EXPECT_FALSE(parses("{\"query\":\"a\",\"deadline_ms\":-1}"));
  // A '['-prefixed line is an array line of query strings and envelopes.
  EXPECT_TRUE(parses("[\"query\"]"));
}

TEST(RequestLineTest, IdsAndStepCapsOf2To64AndAboveAreRejected) {
  // 2^64 and above do not fit the uint64 fields; they must be rejected,
  // not wrapped to 0 ("assign an id" / "use the server default").
  for (const char* line :
       {R"({"query":"a","id":1e20})", R"({"query":"a","max_steps":1e20})",
        R"({"query":"a","id":18446744073709551616})",
        R"(["a",{"query":"b","max_steps":1e300}])"}) {
    ServeBatch batch;
    Status parsed = ParseRequestLine(line, 0, &batch);
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << line;
  }
  // The largest doubles below 2^64 still parse.
  ServeBatch batch;
  ASSERT_TRUE(ParseRequestLine(R"({"query":"a","id":18446744073709549568,)"
                               R"("max_steps":1e19})",
                               0, &batch)
                  .ok());
  EXPECT_EQ(batch.items[0].id, 18446744073709549568u);
  EXPECT_EQ(batch.items[0].max_work_steps, 10000000000000000000u);
}

TEST(RequestLineTest, IdAbove2To53IsEchoedAsSent) {
  // A double holds 2^53 + 1 only as 2^53; the id must not pass through one.
  ServeBatch batch;
  ASSERT_TRUE(ParseRequestLine(R"({"query":"a","id":9007199254740993})", 0,
                               &batch)
                  .ok());
  EXPECT_EQ(batch.items[0].id, 9007199254740993u);
  ServeResponse response;
  response.id = batch.items[0].id;
  EXPECT_EQ(response.ToJsonLine().rfind(R"({"id":9007199254740993,)", 0), 0u)
      << response.ToJsonLine();
}

TEST(RequestLineTest, FractionalIdIsRejectedNotTruncated) {
  for (const char* line : {R"({"query":"a","id":1.5})",
                           R"(["a",{"query":"b","id":2.5}])"}) {
    ServeBatch batch;
    Status parsed = ParseRequestLine(line, 0, &batch);
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.message().find("\"id\""), std::string::npos)
        << parsed.message();
  }
  // Fraction and exponent forms of an integer up to 2^53 still read.
  ServeBatch batch;
  ASSERT_TRUE(ParseRequestLine(R"({"query":"a","id":4.0})", 0, &batch).ok());
  EXPECT_EQ(batch.items[0].id, 4u);
  ASSERT_TRUE(
      ParseRequestLine(R"({"query":"a","id":9.007199254740992e15})", 0, &batch)
          .ok());
  EXPECT_EQ(batch.items[0].id, 9007199254740992u);
  EXPECT_EQ(ParseRequestLine(R"({"query":"a","id":9.007199254740994e15})", 0,
                             &batch)
                .code(),
            StatusCode::kInvalidArgument);
}

/// The status ParseRequestLine gives `line`, checked to name `field` when
/// it refuses it.
Status ParseNaming(const char* line, const char* field) {
  ServeBatch batch;
  Status parsed = ParseRequestLine(line, 0, &batch);
  if (!parsed.ok()) {
    EXPECT_NE(parsed.message().find(field), std::string::npos)
        << parsed.message();
  }
  return parsed;
}

TEST(RequestLineTest, StepCapOfOneHalfIsRejectedNotTakenAsNoCap) {
  // Truncated, 0.5 would become 0, the "server default" that runs the
  // request uncapped.
  const char* line = R"json({"query":"item(name,price)","max_steps":0.5})json";
  EXPECT_EQ(ParseNaming(line, "\"max_steps\"").code(),
            StatusCode::kInvalidArgument);
}

TEST(RequestLineTest, FractionalStepCapIsRejectedNotTruncated) {
  const char* line = R"json({"query":"item(name,price)","max_steps":1.5})json";
  EXPECT_EQ(ParseNaming(line, "\"max_steps\"").code(),
            StatusCode::kInvalidArgument);
  // Fraction and exponent forms of an integer still read.
  ServeBatch batch;
  ASSERT_TRUE(
      ParseRequestLine(R"({"query":"a","max_steps":1.5e1})", 0, &batch).ok());
  EXPECT_EQ(batch.items[0].max_work_steps, 15u);
}

TEST(RequestLineTest, IdWithMoreDigitsThanADoubleHoldsIsRejected) {
  // Through its double this literal reads as exactly 1; its digits do not.
  const char* line = R"json({"query":"a","id":1.00000000000000000001})json";
  EXPECT_EQ(ParseNaming(line, "\"id\"").code(), StatusCode::kInvalidArgument);
  ServeBatch batch;
  ASSERT_TRUE(ParseRequestLine(R"({"query":"a","id":70e-1})", 0, &batch).ok());
  EXPECT_EQ(batch.items[0].id, 7u);
}

TEST(RequestLineTest, IdOf2To64Minus1IsAccepted) {
  ServeBatch batch;
  Status parsed = ParseRequestLine(
      R"({"query":"a","id":18446744073709551615})", 0, &batch);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(batch.items[0].id, UINT64_MAX);
}

TEST(ResponseJsonTest, SuccessAndErrorLinesAreValidJson) {
  ServeResponse ok_response;
  ok_response.id = 3;
  ok_response.query = "a(b)";
  ok_response.ok = true;
  ok_response.estimate = 5.0;
  ok_response.rung = "primary";
  ok_response.snapshot_version = 2;
  Result<JsonValue> ok_json = ParseJson(ok_response.ToJsonLine());
  ASSERT_TRUE(ok_json.ok()) << ok_json.status().ToString();
  EXPECT_DOUBLE_EQ(ok_json->Find("estimate")->number_value, 5.0);
  EXPECT_EQ(ok_json->Find("rung")->string_value, "primary");

  ServeResponse error_response;
  error_response.id = 4;
  error_response.query = "quotes \" and \\ backslashes";
  error_response.error_code = "InvalidArgument";
  error_response.error_message = "bad \"query\"";
  Result<JsonValue> error_json = ParseJson(error_response.ToJsonLine());
  ASSERT_TRUE(error_json.ok()) << error_json.status().ToString();
  EXPECT_FALSE(error_json->Find("ok")->bool_value);
  EXPECT_EQ(error_json->Find("error")->Find("code")->string_value,
            "InvalidArgument");
}

/// Collects responses under a lock and indexes them by request id.
struct ResponseCollector {
  std::mutex mu;
  std::vector<ServeResponse> responses;

  Server::ResponseSink Sink() {
    return [this](ServeBatchResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      for (ServeResponse& item : response.items) {
        responses.push_back(std::move(item));
      }
    };
  }

  std::map<uint64_t, ServeResponse> ById() {
    std::lock_guard<std::mutex> lock(mu);
    std::map<uint64_t, ServeResponse> by_id;
    for (const ServeResponse& response : responses) {
      EXPECT_EQ(by_id.count(response.id), 0u)
          << "duplicate response for id " << response.id;
      by_id[response.id] = response;
    }
    return by_id;
  }
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTempPath("tl_serve_server.tls");
    WriteTestSummary(Env::Default(), path_);
    ReloadOptions options;
    options.backoff_millis = 0.0;
    ASSERT_TRUE(
        ReloadSummary(Env::Default(), path_, options, &snapshots_).ok());
  }

  void TearDown() override {
    ASSERT_TRUE(Env::Default()->DeleteFile(path_).ok());
  }

  std::string path_;
  SnapshotHolder snapshots_;
  ResponseCollector collector_;
};

TEST_F(ServerTest, HugeDeadlineAnswersExactlyInsteadOfExpiring) {
  // deadline_ms beyond the clock's range saturates to "no deadline": the
  // primary rung answers instead of tripping at once and degrading.
  ServerOptions options;
  options.workers = 1;
  options.estimate_cache_capacity = 0;
  Server server(&snapshots_, options, collector_.Sink());
  for (const char* text :
       {R"json({"query":"a(t0,t1,t2,t3)","deadline_ms":9e12,"id":1})json",
        R"json({"query":"a(t0,t1,t2,t3)","deadline_ms":1e13,"id":2})json",
        R"json({"query":"a(t0,t1,t2,t3)","deadline_ms":1e300,"id":3})json"}) {
    ServeBatch line;
    ASSERT_TRUE(ParseRequestLine(text, 0, &line).ok()) << text;
    EXPECT_TRUE(server.Submit(std::move(line)));
  }
  server.Shutdown();
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 3u);
  for (const auto& [request_id, response] : by_id) {
    ASSERT_TRUE(response.ok) << response.error_message;
    EXPECT_EQ(response.rung, "primary") << request_id;
    EXPECT_FALSE(response.degraded) << request_id;
    EXPECT_EQ(response.estimate, by_id[1].estimate);
  }
}

TEST_F(ServerTest, RoundTripsQueriesExactlyOnce) {
  ServerOptions options;
  options.workers = 4;
  {
    Server server(&snapshots_, options, collector_.Sink());
    for (uint64_t id = 1; id <= 50; ++id) {
      ServeRequest request;
      request.id = id;
      request.query = (id % 2 == 0) ? "a(b)" : "b(c)";
      EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
    }
    server.Shutdown();
    Server::Stats stats = server.GetStats();
    EXPECT_EQ(stats.submitted, 50u);
    EXPECT_EQ(stats.ok, 50u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.shed, 0u);
  }
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 50u);
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.ok) << response.error_message;
    EXPECT_DOUBLE_EQ(response.estimate, (id % 2 == 0) ? 5.0 : 4.0);
    EXPECT_EQ(response.rung, "primary");
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.snapshot_version, 1);
  }
}

TEST_F(ServerTest, MalformedQueriesAnswerWithErrorsNotCrashes) {
  Server server(&snapshots_, ServerOptions(), collector_.Sink());
  ServeRequest bad;
  bad.id = 1;
  bad.query = "((((";
  EXPECT_TRUE(server.Submit(Scalar(std::move(bad))));
  server.Shutdown();
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 1u);
  EXPECT_FALSE(by_id[1].ok);
  EXPECT_FALSE(by_id[1].error_code.empty());
  EXPECT_EQ(server.GetStats().errors, 1u);
}

TEST_F(ServerTest, NoSnapshotYieldsNotFoundResponse) {
  SnapshotHolder empty;
  Server server(&empty, ServerOptions(), collector_.Sink());
  ServeRequest request;
  request.id = 9;
  request.query = "a(b)";
  EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  server.Shutdown();
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 1u);
  EXPECT_FALSE(by_id[9].ok);
  EXPECT_EQ(by_id[9].error_code, "NotFound");
}

TEST_F(ServerTest, FullQueueShedsWithResourceExhausted) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.worker_delay_millis = 20.0;  // hold the worker so the queue fills
  Server server(&snapshots_, options, collector_.Sink());
  int admitted = 0;
  for (uint64_t id = 1; id <= 20; ++id) {
    ServeRequest request;
    request.id = id;
    request.query = "a(b)";
    if (server.Submit(Scalar(std::move(request)))) ++admitted;
  }
  server.Shutdown();

  Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(admitted));
  EXPECT_EQ(stats.shed, 20u - static_cast<uint64_t>(admitted));
  EXPECT_GT(stats.shed, 0u) << "queue never filled; shedding untested";

  // Exactly one response per request either way; shed ones carry the
  // load-shedding error code.
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 20u);
  int shed_seen = 0;
  for (const auto& [id, response] : by_id) {
    if (!response.ok) {
      EXPECT_EQ(response.error_code, "ResourceExhausted");
      ++shed_seen;
    }
  }
  EXPECT_EQ(shed_seen, 20 - admitted);
}

TEST_F(ServerTest, StarvedRequestsDegradeWithRungRecorded) {
  // A per-request step budget the voting primary cannot meet on the
  // star-12 query (>2^11 distinct sub-stars) but the fixed-size sweep
  // (a few hundred lookups) fits comfortably: the ladder answers from a
  // fallback rung and the response says so.
  ServerOptions options;
  options.default_max_work_steps = 1000;
  Server server(&snapshots_, options, collector_.Sink());
  ServeRequest request;
  request.id = 1;
  request.query = "a(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10,t11)";
  EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  server.Shutdown();

  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 1u);
  const ServeResponse& response = by_id[1];
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_TRUE(response.degraded);
  EXPECT_NE(response.rung, "primary");
  EXPECT_EQ(server.GetStats().degraded, 1u);
}

TEST_F(ServerTest, UnknownLabelsEstimateZeroAcrossReload) {
  // Labels the snapshot has never seen intern fresh ids in the worker's
  // private dict copy and miss every summary lookup — estimate 0, not a
  // crash, and the shared snapshot dict is never mutated.
  Server server(&snapshots_, ServerOptions(), collector_.Sink());
  ServeRequest request;
  request.id = 1;
  request.query = "nosuch(labels)";
  EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  server.Shutdown();
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 1u);
  ASSERT_TRUE(by_id[1].ok) << by_id[1].error_message;
  EXPECT_DOUBLE_EQ(by_id[1].estimate, 0.0);
}

TEST_F(ServerTest, WorkersPickUpHotSwappedSnapshot) {
  // Double every count, rewrite the file, reload, and query again: the
  // same query must now answer from the new snapshot (version 2, doubled
  // estimate) without restarting the server.
  Server server(&snapshots_, ServerOptions(), collector_.Sink());
  ServeRequest first;
  first.id = 1;
  first.query = "a(b)";
  EXPECT_TRUE(server.Submit(Scalar(std::move(first))));
  while (collector_.ById().empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  WriteTestSummary(Env::Default(), path_, /*scale=*/2);
  ReloadOptions options;
  options.backoff_millis = 0.0;
  ASSERT_TRUE(
      ReloadSummary(Env::Default(), path_, options, &snapshots_).ok());

  ServeRequest second;
  second.id = 2;
  second.query = "a(b)";
  EXPECT_TRUE(server.Submit(Scalar(std::move(second))));
  server.Shutdown();

  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_DOUBLE_EQ(by_id[1].estimate, 5.0);
  EXPECT_EQ(by_id[1].snapshot_version, 1);
  EXPECT_DOUBLE_EQ(by_id[2].estimate, 10.0);
  EXPECT_EQ(by_id[2].snapshot_version, 2);
}

TEST(EstimateCacheTest, VersionFenceDropsStaleEntries) {
  EstimateCache cache(EstimateCache::Options{});
  const std::string code = "0(1)";
  const uint64_t hash = HashBytes(code);

  cache.Put(/*snapshot_version=*/1, hash, code, 5.0);
  ASSERT_TRUE(cache.Get(1, hash, code).has_value());
  EXPECT_DOUBLE_EQ(*cache.Get(1, hash, code), 5.0);

  // A reader on the next snapshot must never see the version-1 value:
  // the first touch at version 2 clears the shard.
  EXPECT_FALSE(cache.Get(2, hash, code).has_value());
  EXPECT_EQ(cache.size(), 0u);
  cache.Put(2, hash, code, 10.0);
  EXPECT_DOUBLE_EQ(*cache.Get(2, hash, code), 10.0);
  EXPECT_GT(cache.GetStats().invalidations, 0u);
}

TEST(EstimateCacheTest, LruEvictsOldestWithinCapacity) {
  EstimateCache::Options options;
  options.capacity = 4;
  options.shards = 1;  // one shard so the LRU order is fully observable
  EstimateCache cache(options);

  std::vector<std::string> codes = {"0(1)", "0(2)", "0(3)", "0(4)", "0(5)"};
  for (size_t i = 0; i < 4; ++i) {
    cache.Put(1, HashBytes(codes[i]), codes[i], static_cast<double>(i));
  }
  // Touch the oldest so the second-oldest becomes the eviction victim.
  ASSERT_TRUE(cache.Get(1, HashBytes(codes[0]), codes[0]).has_value());
  cache.Put(1, HashBytes(codes[4]), codes[4], 4.0);

  EXPECT_TRUE(cache.Get(1, HashBytes(codes[0]), codes[0]).has_value());
  EXPECT_FALSE(cache.Get(1, HashBytes(codes[1]), codes[1]).has_value());
  EXPECT_TRUE(cache.Get(1, HashBytes(codes[4]), codes[4]).has_value());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(EstimateCacheTest, InvalidateEmptiesEveryShard) {
  EstimateCache cache(EstimateCache::Options{});
  for (int i = 0; i < 32; ++i) {
    const std::string code = "0(" + std::to_string(i + 1) + ")";
    cache.Put(1, HashBytes(code), code, static_cast<double>(i));
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  const std::string probe = "0(1)";
  EXPECT_FALSE(cache.Get(1, HashBytes(probe), probe).has_value());
}

TEST_F(ServerTest, RepeatedQueryServedFromCacheExactly) {
  ServerOptions options;
  options.workers = 1;  // deterministic request order
  Server server(&snapshots_, options, collector_.Sink());
  for (uint64_t id = 1; id <= 3; ++id) {
    ServeRequest request;
    request.id = id;
    request.query = "a(b)";
    EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  }
  server.Shutdown();

  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_FALSE(by_id[1].cached);  // cold
  EXPECT_TRUE(by_id[2].cached);
  EXPECT_TRUE(by_id[3].cached);
  for (const auto& [id, response] : by_id) {
    ASSERT_TRUE(response.ok) << response.error_message;
    // A cached answer is the exact estimate, never an approximation.
    EXPECT_DOUBLE_EQ(response.estimate, 5.0);
    EXPECT_EQ(response.rung, "primary");
    EXPECT_FALSE(response.degraded);
  }
  Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST_F(ServerTest, ReloadDropsEstimateCacheSoStaleCountsNeverServe) {
  // Warm the cache at snapshot v1, double every count and hot-swap to v2,
  // then repeat the query: the answer must come from the new snapshot's
  // counts — a 5.0 after the swap would be the cache serving stale data.
  ServerOptions options;
  options.workers = 1;
  Server server(&snapshots_, options, collector_.Sink());
  auto submit = [&](uint64_t id) {
    ServeRequest request;
    request.id = id;
    request.query = "a(b)";
    EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  };
  submit(1);
  submit(2);
  while (collector_.ById().size() < 2u) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  WriteTestSummary(Env::Default(), path_, /*scale=*/2);
  ReloadOptions reload;
  reload.backoff_millis = 0.0;
  ASSERT_TRUE(ReloadSummary(Env::Default(), path_, reload, &snapshots_).ok());

  submit(3);
  submit(4);
  server.Shutdown();

  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_DOUBLE_EQ(by_id[1].estimate, 5.0);
  EXPECT_FALSE(by_id[1].cached);
  EXPECT_DOUBLE_EQ(by_id[2].estimate, 5.0);
  EXPECT_TRUE(by_id[2].cached);
  // Post-swap: fresh counts, recomputed then re-cached under version 2.
  EXPECT_DOUBLE_EQ(by_id[3].estimate, 10.0);
  EXPECT_FALSE(by_id[3].cached);
  EXPECT_EQ(by_id[3].snapshot_version, 2);
  EXPECT_DOUBLE_EQ(by_id[4].estimate, 10.0);
  EXPECT_TRUE(by_id[4].cached);
}

TEST_F(ServerTest, GovernedResultsAreNeverCached) {
  // Deadline-governed answers may be cut short by the governor, so they
  // must never be inserted — a repeat of the same governed query computes
  // again instead of hitting the cache.
  ServerOptions options;
  options.workers = 1;
  options.default_deadline_millis = 10000.0;  // generous, but governed
  Server server(&snapshots_, options, collector_.Sink());
  for (uint64_t id = 1; id <= 2; ++id) {
    ServeRequest request;
    request.id = id;
    request.query = "a(b)";
    EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  }
  server.Shutdown();

  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 2u);
  for (const auto& [id, response] : by_id) {
    ASSERT_TRUE(response.ok) << response.error_message;
    EXPECT_DOUBLE_EQ(response.estimate, 5.0);
    EXPECT_FALSE(response.cached);
  }
  EXPECT_EQ(server.GetStats().cache_hits, 0u);
}

TEST(ResponseJsonTest, TransportRequestIdRidesEveryLineAfterClientId) {
  ServeResponse response;
  response.id = 3;
  response.req = 99;
  response.query = "a(b)";
  response.ok = true;
  response.estimate = 5.0;
  response.rung = "primary";
  std::string line = response.ToJsonLine();
  // "id" must stay the first key (scripts grep for ^{"id":); the
  // transport-assigned request id rides second.
  EXPECT_EQ(line.rfind("{\"id\":3,\"req\":99,", 0), 0u) << line;
  Result<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("req")->number_value, 99.0);
}

TEST(SlowQueryLogTest, ThresholdGatesAndRingKeepsNewest) {
  SlowQueryLog log({/*threshold_millis=*/10.0, /*capacity=*/2});
  EXPECT_FALSE(log.ShouldRecord(9.99));
  EXPECT_TRUE(log.ShouldRecord(10.0));
  SlowQueryLog disabled({/*threshold_millis=*/0.0, /*capacity=*/2});
  EXPECT_FALSE(disabled.ShouldRecord(1e9));  // <= 0 disables entirely

  for (uint64_t i = 1; i <= 3; ++i) {
    SlowQueryLog::Entry entry;
    entry.req_id = i;
    entry.total_millis = 10.0 + static_cast<double>(i);
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.total_recorded(), 3u);  // monotonic, not capped
  std::vector<SlowQueryLog::Entry> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // ring displaced the oldest
  EXPECT_EQ(snapshot[0].req_id, 3u);  // newest first
  EXPECT_EQ(snapshot[1].req_id, 2u);
}

TEST(RequestTraceTest, FinalizeComputesStageDeltasAndFeedsSlowLog) {
  obs::SetEnabledForTest(true);
  RequestTrace trace;
  trace.active = true;
  trace.req_id = 42;
  trace.framed_micros = 100;
  trace.admitted_micros = 150;
  trace.dequeued_micros = 400;
  trace.estimated_micros = 2400;
  trace.serialized_micros = 2500;
  trace.flushed_micros = 3100;
  trace.twig_size = 3;
  trace.twig_depth = 2;
  trace.twig_fanout = 1;
  trace.work_steps = 7;
  RequestOutcome outcome;
  outcome.query = "a(b(c))";
  outcome.rung = "primary";
  outcome.ok = true;
  outcome.snapshot_version = 1;

  SlowQueryLog log({/*threshold_millis=*/1.0, /*capacity=*/4});
  FinalizeRequestTrace(trace, outcome, &log);
  ASSERT_EQ(log.total_recorded(), 1u);
  std::vector<SlowQueryLog::Entry> snapshot = log.Snapshot();
  const SlowQueryLog::Entry& entry = snapshot[0];
  EXPECT_EQ(entry.req_id, 42u);
  EXPECT_EQ(entry.query, "a(b(c))");
  EXPECT_TRUE(entry.ok);
  EXPECT_EQ(entry.admit_micros, 50u);
  EXPECT_EQ(entry.queue_wait_micros, 250u);
  EXPECT_EQ(entry.estimate_micros, 2000u);
  EXPECT_EQ(entry.serialize_micros, 100u);
  EXPECT_EQ(entry.flush_micros, 600u);
  EXPECT_DOUBLE_EQ(entry.total_millis, 3.0);
  EXPECT_EQ(entry.twig_size, 3u);
  EXPECT_EQ(entry.twig_depth, 2u);
  EXPECT_EQ(entry.twig_fanout, 1u);
  EXPECT_EQ(entry.work_steps, 7u);

  // The same request against a higher threshold stays out of the ring.
  SlowQueryLog strict({/*threshold_millis=*/5.0, /*capacity=*/4});
  FinalizeRequestTrace(trace, outcome, &strict);
  EXPECT_EQ(strict.total_recorded(), 0u);

  // An inactive trace (TREELATTICE_OBS=off at Begin) records nothing.
  trace.active = false;
  FinalizeRequestTrace(trace, outcome, &log);
  EXPECT_EQ(log.total_recorded(), 1u);
}

TEST_F(ServerTest, DisabledCacheNeverMarksResponsesCached) {
  ServerOptions options;
  options.workers = 1;
  options.estimate_cache_capacity = 0;
  Server server(&snapshots_, options, collector_.Sink());
  for (uint64_t id = 1; id <= 2; ++id) {
    ServeRequest request;
    request.id = id;
    request.query = "a(b)";
    EXPECT_TRUE(server.Submit(Scalar(std::move(request))));
  }
  server.Shutdown();
  std::map<uint64_t, ServeResponse> by_id = collector_.ById();
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_FALSE(by_id[1].cached);
  EXPECT_FALSE(by_id[2].cached);
  Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace treelattice
