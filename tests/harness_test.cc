#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/exact_estimator.h"
#include "core/recursive_estimator.h"
#include "harness/experiment.h"
#include "harness/metrics.h"

namespace treelattice {
namespace {

TEST(MetricsTest, SanityBoundFloorsAtTen) {
  EXPECT_DOUBLE_EQ(SanityBound({1, 2, 3}), 10.0);
  EXPECT_DOUBLE_EQ(SanityBound({}), 10.0);
}

TEST(MetricsTest, SanityBoundUsesTenthPercentile) {
  std::vector<double> counts;
  for (int i = 1; i <= 100; ++i) counts.push_back(i * 100.0);
  double sanity = SanityBound(counts);
  EXPECT_GT(sanity, 100.0);
  EXPECT_LT(sanity, 2000.0);
}

TEST(MetricsTest, RelativeErrorUsesSanityForSmallCounts) {
  // true=2, est=4, sanity=10: |2-4|/10 = 20%.
  EXPECT_DOUBLE_EQ(RelativeErrorPct(2, 4, 10), 20.0);
  // true=100, est=50, sanity=10: |100-50|/100 = 50%.
  EXPECT_DOUBLE_EQ(RelativeErrorPct(100, 50, 10), 50.0);
  EXPECT_DOUBLE_EQ(RelativeErrorPct(0, 0, 0), 0.0);
}

TEST(MetricsTest, MeanAndPercentile) {
  std::vector<double> values = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(MetricsTest, PercentileSingleElement) {
  // One element answers every percentile.
  for (double pct : {0.0, 10.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile({7.5}, pct), 7.5) << pct;
  }
}

TEST(MetricsTest, PercentileClampsOutOfRangePct) {
  std::vector<double> values = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(values, -10.0), 1.0);   // clamped to min
  EXPECT_DOUBLE_EQ(Percentile(values, 250.0), 4.0);   // clamped to max
}

TEST(MetricsTest, PercentileNanPropagates) {
  std::vector<double> values = {4, 1, 3, 2};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(Percentile(values, nan)));
  EXPECT_TRUE(std::isnan(Percentile({1.0, nan, 3.0}, 50.0)));
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::string out = table.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Column 2 aligned: "value" and "1" start at the same offset.
  size_t header_pos = out.find("value");
  size_t row_pos = out.find("1");
  EXPECT_EQ(header_pos % (out.find('\n') + 1), row_pos % (out.find('\n') + 1));
}

TEST(ExperimentTest, PrepareDatasetBuildsEverything) {
  ExperimentOptions options;
  options.scale = 30;
  options.lattice_level = 3;
  options.treesketch_budget_bytes = 4096;
  auto bundle = PrepareDataset("psd", options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_GT(bundle->doc.NumNodes(), 100u);
  EXPECT_GT(bundle->summary.NumPatterns(), 10u);
  EXPECT_GT(bundle->sketch.NumClusters(), 0u);
  EXPECT_GT(bundle->build_stats.patterns_per_level[1], 0u);
}

TEST(ExperimentTest, PrepareDatasetSkipsSketchWhenAsked) {
  ExperimentOptions options;
  options.scale = 20;
  auto bundle = PrepareDataset("psd", options, /*build_sketch=*/false);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->sketch.NumClusters(), 0u);
}

TEST(ExperimentTest, WorkloadAndRunEstimator) {
  ExperimentOptions options;
  options.scale = 40;
  options.lattice_level = 4;
  options.queries_per_size = 15;
  auto bundle = PrepareDataset("psd", options, /*build_sketch=*/false);
  ASSERT_TRUE(bundle.ok());
  MatchCounter counter(bundle->doc);
  auto workload = PrepareWorkload(bundle->doc, counter, 5, options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_GT(workload->queries.size(), 3u);
  EXPECT_EQ(workload->queries.size(), workload->true_counts.size());
  EXPECT_GE(workload->sanity, 10.0);

  // The exact estimator must score zero error.
  ExactEstimator exact(bundle->doc);
  auto exact_run = RunEstimator(exact, *workload);
  ASSERT_TRUE(exact_run.ok());
  EXPECT_DOUBLE_EQ(exact_run->avg_error_pct, 0.0);

  // The recursive estimator runs and produces finite errors.
  RecursiveDecompositionEstimator recursive(&bundle->summary);
  auto run = RunEstimator(recursive, *workload);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->errors.size(), workload->queries.size());
  EXPECT_GE(run->avg_time_ms, 0.0);
}

}  // namespace
}  // namespace treelattice
