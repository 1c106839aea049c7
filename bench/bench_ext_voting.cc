// Extension ablation (paper Section 3.2): vote aggregation schemes. The
// paper averages the leaf-pair estimates at each recursion level and notes
// that "different voting schemes can be applied here accounting for higher
// order statistical moments and these are under evaluation" — this bench
// runs that evaluation: no voting vs mean voting vs median voting, plus a
// capped-vote variant showing the accuracy/latency trade-off. The paper
// averages "all (or a sample of)" the pairs; the cap's sample is the first
// k pairs in each sub-twig's canonical preorder, so it is the same for
// every spelling of a query.
//
// Flags: --scale=<n>, --seed=<n>, --queries=<n>, --min_size, --max_size.

#include <cstdio>
#include <memory>

#include "core/recursive_estimator.h"
#include "harness/experiment.h"
#include "harness/bench_report.h"
#include "harness/flags.h"
#include "util/string_util.h"

namespace treelattice {
namespace {

int Run(const Flags& flags) {
  const int min_size = static_cast<int>(flags.GetInt("min_size", 5));
  const int max_size = static_cast<int>(flags.GetInt("max_size", 8));
  std::printf("=== Extension: Vote Aggregation Ablation ===\n\n");
  for (const std::string& name : DatasetNames()) {
    ExperimentOptions options;
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.scale = static_cast<int>(flags.GetInt("scale", 0));
    options.queries_per_size =
        static_cast<size_t>(flags.GetInt("queries", 60));
    Result<DatasetBundle> bundle =
        PrepareDataset(name, options, /*build_sketch=*/false);
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   bundle.status().ToString().c_str());
      return 1;
    }

    using Options = RecursiveDecompositionEstimator::Options;
    using Agg = RecursiveDecompositionEstimator::VoteAggregation;
    Options none;
    Options mean{true, 0, Agg::kMean};
    Options median{true, 0, Agg::kMedian};
    Options capped4{true, 4, Agg::kMean};
    std::vector<std::pair<std::string, Options>> variants = {
        {"no-voting", none},
        {"mean", mean},
        {"median", median},
        {"mean-cap4", capped4},
    };

    MatchCounter counter(bundle->doc);
    TextTable table;
    std::vector<std::string> header = {"QuerySize"};
    for (const auto& [label, opts] : variants) {
      (void)opts;
      header.push_back(label + " err%");
      header.push_back(label + " ms");
    }
    table.SetHeader(header);

    for (int size = min_size; size <= max_size; ++size) {
      Result<WorkloadEval> workload =
          PrepareWorkload(bundle->doc, counter, size, options);
      if (!workload.ok()) {
        std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> row = {std::to_string(size)};
      for (const auto& [label, opts] : variants) {
        (void)label;
        RecursiveDecompositionEstimator estimator(&bundle->summary, opts);
        Result<EstimatorRun> run = RunEstimator(estimator, *workload);
        if (!run.ok()) {
          std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
          return 1;
        }
        row.push_back(FormatDouble(run->avg_error_pct, 1));
        row.push_back(FormatDouble(run->avg_time_ms, 3));
      }
      table.AddRow(row);
    }
    std::printf("--- %s ---\n%s\n", name.c_str(), table.Render().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) {
  treelattice::Flags flags(argc, argv);
  treelattice::BenchReport report("bench_ext_voting", flags);
  return report.Finish(treelattice::Run(flags));
}
