// google-benchmark microbenchmarks for the library's hot paths: canonical
// coding, match counting, lattice mining levels, decomposition, and the
// estimators.
//
// `--json=<path>` (the shared bench convention) is translated to
// google-benchmark's own JSON reporter; the metrics-registry snapshot is
// written next to it as <path>.metrics.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/env.h"
#include "obs/metrics.h"

#include "core/fixed_size_estimator.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "summary/lattice_summary.h"
#include "twig/decompose.h"
#include "workload/workload.h"

namespace treelattice {
namespace {

const Document& SharedDoc() {
  static const Document* doc = [] {
    DatasetOptions options;
    options.scale = 400;
    return new Document(GenerateXmark(options));
  }();
  return *doc;
}

const LatticeSummary& SharedSummary() {
  static const LatticeSummary* summary = [] {
    LatticeBuildOptions options;
    options.max_level = 4;
    auto result = BuildLattice(SharedDoc(), options);
    return new LatticeSummary(std::move(result).value());
  }();
  return *summary;
}

std::vector<Twig> SharedQueries(int size) {
  WorkloadOptions options;
  options.seed = 1234 + static_cast<uint64_t>(size);
  options.query_size = size;
  options.num_queries = 32;
  auto result = GeneratePositiveWorkload(SharedDoc(), options);
  return std::move(result).value();
}

void BM_CanonicalCode(benchmark::State& state) {
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queries[i % queries.size()].CanonicalCode());
    ++i;
  }
}
BENCHMARK(BM_CanonicalCode)->Arg(4)->Arg(8);

void BM_MatchCount(benchmark::State& state) {
  MatchCounter counter(SharedDoc());
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Count(queries[i % queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_MatchCount)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_LatticeBuild(benchmark::State& state) {
  DatasetOptions generate;
  generate.scale = 100;
  Document doc = GenerateXmark(generate);
  LatticeBuildOptions options;
  options.max_level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto summary = BuildLattice(doc, options);
    benchmark::DoNotOptimize(summary.ok());
  }
}
BENCHMARK(BM_LatticeBuild)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_LatticeBuildParallel(benchmark::State& state) {
  DatasetOptions generate;
  generate.scale = 400;
  Document doc = GenerateXmark(generate);
  LatticeBuildOptions options;
  options.max_level = 4;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto summary = BuildLattice(doc, options);
    benchmark::DoNotOptimize(summary.ok());
  }
}
BENCHMARK(BM_LatticeBuildParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_FixedSizeCover(benchmark::State& state) {
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FixedSizeCover(queries[i % queries.size()], 4).ok());
    ++i;
  }
}
BENCHMARK(BM_FixedSizeCover)->Arg(5)->Arg(8);

void BM_EstimateRecursive(benchmark::State& state) {
  RecursiveDecompositionEstimator estimator(&SharedSummary());
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(queries[i % queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_EstimateRecursive)->Arg(5)->Arg(6)->Arg(8);

void BM_EstimateRecursiveVoting(benchmark::State& state) {
  RecursiveDecompositionEstimator estimator(
      &SharedSummary(), RecursiveDecompositionEstimator::Options{true, 0});
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(queries[i % queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_EstimateRecursiveVoting)->Arg(5)->Arg(6)->Arg(8);

void BM_EstimateFixedSize(benchmark::State& state) {
  FixedSizeDecompositionEstimator estimator(&SharedSummary());
  std::vector<Twig> queries = SharedQueries(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(queries[i % queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_EstimateFixedSize)->Arg(5)->Arg(6)->Arg(8);

void BM_SummaryLookup(benchmark::State& state) {
  const LatticeSummary& summary = SharedSummary();
  std::vector<Twig> queries = SharedQueries(4);
  std::vector<std::string> codes;
  for (const Twig& q : queries) codes.push_back(q.CanonicalCode());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(summary.LookupCode(codes[i % codes.size()]));
    ++i;
  }
}
BENCHMARK(BM_SummaryLookup);

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) {
  // Rewrite --json=<path> into google-benchmark's reporter flags so this
  // binary matches the other benches' interface, and drop other non
  // --benchmark_* flags (the shared Flags contract ignores unrecognized
  // arguments, so sweep drivers pass the same flag set to every bench).
  std::string json_path;
  std::vector<char*> args;
  std::vector<std::string> storage;
  args.reserve(static_cast<size_t>(argc) + 2);
  storage.reserve(2);
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      storage.push_back("--benchmark_out=" + json_path);
      storage.push_back("--benchmark_out_format=json");
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      args.push_back(argv[i]);
    }
  }
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::string path = json_path + ".metrics.json";
    if (treelattice::Status s = treelattice::WriteFileAtomic(
            treelattice::Env::Default(), path,
            treelattice::obs::MetricsRegistry::Default()->ToJson());
        !s.ok()) {
      std::fprintf(stderr, "--json: %s\n", s.ToString().c_str());
    }
  }
  return 0;
}
