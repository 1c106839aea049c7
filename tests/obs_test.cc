// Telemetry subsystem tests (ctest label: obs): counters, gauges,
// histograms and their registry dumps, the runtime on/off gate, Chrome
// trace output, and an end-to-end check that the mining/estimation
// instrumentation actually fires.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator_metrics.h"
#include "core/recursive_estimator.h"
#include "io/env.h"
#include "mining/lattice_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_metrics.h"
#include "temp_path.h"
#include "util/json.h"
#include "xml/parser.h"

namespace treelattice {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::Tracer;
using obs::TraceSpan;

// Every test runs with collection forced on so a TREELATTICE_OBS=off
// environment (e.g. the overhead checker's) cannot flip expectations.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetEnabledForTest(true); }
  void TearDown() override { obs::SetEnabledForTest(true); }
};

TEST_F(ObsTest, CounterIncrementsAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAddAndSetMax) {
  obs::Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.SetMax(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.SetMax(2);  // lower value must not win
  EXPECT_EQ(gauge.value(), 10);
}

TEST_F(ObsTest, HistogramSingleValue) {
  Histogram h;
  h.Record(7);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 7u);
  EXPECT_EQ(snap.min, 7u);
  EXPECT_EQ(snap.max, 7u);
  // Percentiles are clamped to the observed range; with one sample every
  // quantile is that sample.
  EXPECT_DOUBLE_EQ(snap.p50, 7.0);
  EXPECT_DOUBLE_EQ(snap.p99, 7.0);
}

TEST_F(ObsTest, HistogramPercentilesBracketTrueQuantiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 100u);
  // Log-bucketed, so only bucket-resolution accuracy is promised: the true
  // p50 (50) lies in [32, 64) and p99 (99) in [64, 100].
  EXPECT_GE(snap.p50, 32.0);
  EXPECT_LE(snap.p50, 64.0);
  EXPECT_GE(snap.p95, 64.0);
  EXPECT_LE(snap.p95, 100.0);
  EXPECT_GE(snap.p99, snap.p95);
  EXPECT_LE(snap.p99, 100.0);
}

TEST_F(ObsTest, HistogramZeroValuesAndReset) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_DOUBLE_EQ(snap.p99, 0.0);
  h.Reset();
  EXPECT_EQ(h.GetSnapshot().count, 0u);
}

TEST_F(ObsTest, DisabledGateDropsAllUpdates) {
  obs::Counter counter;
  obs::Gauge gauge;
  Histogram h;
  obs::SetEnabledForTest(false);
  counter.Increment(5);
  gauge.Set(5);
  gauge.SetMax(9);
  h.Record(5);
  obs::SetEnabledForTest(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(h.GetSnapshot().count, 0u);
}

TEST_F(ObsTest, CounterIsThreadSafeExactTotal) {
  obs::Counter counter;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.GetSnapshot().count, uint64_t{kThreads} * kPerThread);
}

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  obs::Counter* a = registry.counter("test.counter");
  obs::Counter* b = registry.counter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("test.other"), a);
  EXPECT_EQ(registry.histogram("test.h"), registry.histogram("test.h"));
}

TEST_F(ObsTest, RegistryJsonIsValidAndComplete) {
  MetricsRegistry registry;
  registry.counter("test.hits")->Increment(3);
  registry.gauge("test.depth")->Set(-2);
  registry.histogram("test.lat")->Record(100);

  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* hits = counters->Find("test.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_DOUBLE_EQ(hits->number_value, 3.0);
  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("test.depth")->number_value, -2.0);
  const JsonValue* lat = parsed->Find("histograms")->Find("test.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->number_value, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("p50")->number_value, 100.0);
}

TEST_F(ObsTest, PrometheusTextRendersAllKinds) {
  MetricsRegistry registry;
  registry.counter("test.bytes-total")->Increment(9);
  registry.gauge("test.depth")->Set(4);
  registry.histogram("test.lat")->Record(8);
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE treelattice_test_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("treelattice_test_bytes_total 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE treelattice_test_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("treelattice_test_lat_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("treelattice_test_lat{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST_F(ObsTest, ResetAllZeroesEverything) {
  MetricsRegistry registry;
  obs::Counter* c = registry.counter("test.c");
  c->Increment(5);
  Histogram* h = registry.histogram("test.h");
  h->Record(5);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);  // cached pointer survives the reset
  EXPECT_EQ(h->GetSnapshot().count, 0u);
}

TEST_F(ObsTest, TracerEmitsValidChromeTraceJson) {
  Tracer::Start();
  {
    TraceSpan outer("outer.span", "test");
    TraceSpan inner("inner.span", "test");
    inner.SetArg("level", 3);
  }
  Tracer::Stop();
  ASSERT_EQ(Tracer::CollectedEvents(), 2u);

  Result<JsonValue> parsed = ParseJson(Tracer::ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  bool saw_arg = false;
  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    EXPECT_TRUE(event.Find("name")->is_string());
    EXPECT_EQ(event.Find("cat")->string_value, "test");
    EXPECT_EQ(event.Find("ph")->string_value, "X");
    EXPECT_TRUE(event.Find("ts")->is_number());
    EXPECT_TRUE(event.Find("dur")->is_number());
    EXPECT_TRUE(event.Find("pid")->is_number());
    EXPECT_TRUE(event.Find("tid")->is_number());
    if (const JsonValue* args = event.Find("args")) {
      const JsonValue* level = args->Find("level");
      if (level != nullptr && level->number_value == 3.0) saw_arg = true;
    }
  }
  EXPECT_TRUE(saw_arg);
}

TEST_F(ObsTest, TracerDisabledRecordsNothing) {
  Tracer::Start();
  Tracer::Stop();
  { TraceSpan span("ignored.span", "test"); }
  EXPECT_EQ(Tracer::CollectedEvents(), 0u);
  // Start() discards any previous trace.
  Tracer::Start();
  { TraceSpan span("kept.span", "test"); }
  Tracer::Stop();
  EXPECT_EQ(Tracer::CollectedEvents(), 1u);
}

TEST_F(ObsTest, TracerRingDropsOldestBeyondCapacity) {
  Tracer::SetRingCapacity(8);
  Tracer::Start();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("ring.span", "test");
  }
  Tracer::Stop();
  // Bounded: the newest 8 events survive, the rest are counted dropped —
  // a long-running server keeps the recent past, not unbounded history.
  EXPECT_EQ(Tracer::CollectedEvents(), 8u);
  EXPECT_EQ(Tracer::DroppedEvents(), 92u);
  Result<JsonValue> parsed = ParseJson(Tracer::ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("traceEvents")->array.size(), 8u);
  Tracer::SetRingCapacity(65536);  // restore the default for later tests
  Tracer::Start();
  Tracer::Stop();
  EXPECT_EQ(Tracer::DroppedEvents(), 0u);  // Start() resets the tally
}

TEST_F(ObsTest, PeriodicFlushLeavesParseableTraceFile) {
  const std::string path = UniqueTempPath("tl_obs_periodic_trace.json");
  Tracer::Start();
  ASSERT_TRUE(Tracer::StartPeriodicFlush(path, 5.0).ok());
  {
    TraceSpan span("flush.span", "test");
  }
  // StopPeriodicFlush writes once more before returning, so the file holds
  // the complete trace even if no interval elapsed.
  Tracer::StopPeriodicFlush();
  Tracer::Stop();

  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &bytes).ok());
  Result<JsonValue> parsed = ParseJson(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());
  EXPECT_EQ(events->array[0].Find("name")->string_value, "flush.span");
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

TEST_F(ObsTest, MiningAndEstimationInstrumentationFires) {
  MetricsRegistry* registry = MetricsRegistry::Default();
  registry->ResetAll();

  auto doc = ParseXmlString(
      "<r><a><b/><c/></a><a><b/><c/></a><a><b/></a><d><b/><c/></d></r>");
  ASSERT_TRUE(doc.ok());
  LatticeBuildOptions options;
  options.max_level = 2;
  Result<LatticeSummary> summary = BuildLattice(*doc, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_GT(registry->counter("mining.patterns_inserted")->value(), 0u);
  EXPECT_GT(registry->counter("mining.candidates_generated")->value(), 0u);

  // A query above the lattice level forces decomposition: hits, misses, and
  // the depth histogram must all move.
  Result<Twig> query = Twig::Parse("r(a(b,c),d)", &doc->mutable_dict());
  ASSERT_TRUE(query.ok());
  RecursiveDecompositionEstimator estimator(&*summary);
  Result<double> estimate = estimator.Estimate(*query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(registry->counter("estimator.summary_hits")->value(), 0u);
  EXPECT_GT(registry->counter("estimator.summary_misses")->value(), 0u);
  EXPECT_GT(registry->counter("estimator.decompositions")->value(), 0u);
  EXPECT_GT(
      registry->histogram("estimator.decomposition_depth")->GetSnapshot().count,
      0u);
}

TEST_F(ObsTest, ServeAndDegradationMetricsAreRegistered) {
  // Touching the singletons registers every serve.* and estimator.*
  // governance metric in the default registry; the JSON dump must then
  // carry each name in its declared section.
  serve::ServeMetrics& sm = serve::ServeMetrics::Get();
  EstimatorMetrics& em = EstimatorMetrics::Get();
  sm.requests->Increment();
  sm.queue_depth_peak->SetMax(3);
  sm.latency_micros->Record(42);
  em.deadline_exceeded->Increment();
  em.degraded->Increment();

  Result<JsonValue> parsed = ParseJson(MetricsRegistry::Default()->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  const JsonValue* gauges = parsed->Find("gauges");
  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);

  namespace names = obs::metric_names;
  for (const char* name :
       {names::kServeRequests, names::kServeResponsesOk,
        names::kServeResponsesError, names::kServeShed, names::kServeReloads,
        names::kServeReloadFailures, names::kEstimatorDeadlineExceeded,
        names::kEstimatorDegraded}) {
    EXPECT_NE(counters->Find(name), nullptr) << name;
  }
  EXPECT_NE(gauges->Find(names::kServeQueueDepthPeak), nullptr);
  EXPECT_NE(gauges->Find(names::kServeSnapshotVersion), nullptr);
  EXPECT_NE(histograms->Find(names::kServeLatencyMicros), nullptr);
  EXPECT_GE(counters->Find(names::kServeRequests)->number_value, 1.0);
  EXPECT_GE(counters->Find(names::kEstimatorDegraded)->number_value, 1.0);
}

}  // namespace
}  // namespace treelattice
