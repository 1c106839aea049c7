// Extension benchmark: the batched estimation pipeline (DESIGN.md §14).
// Streams size-N voting queries through BatchEstimator::EstimateBatch at
// batch sizes {1, 8, 64, 256} and through the plain single-query path
// (per-query memo reset, per-query summary probes), on the same workload.
// The batch path's wins are structural: cross-query dedup answers repeated
// queries once, the batch-scoped memo shares every sub-twig across the
// batch, and per-batch staging comes from a monotonic arena reset per
// batch.
//
// Bit-identity gate: before any timing, every batch size is checked to
// produce the exact bits of the sequential path on every query — memo
// entries are pure per-code values inserted only after full computation,
// so sharing them cannot change results; this bench enforces that claim.
//
// The headline result is `speedup` (batch-64 queries/sec over sequential
// queries/sec), a machine-independent ratio guarded by
// tools/check_perf.sh against bench/baselines/batch.json. The tentpole
// target is >= 2x.
//
// Flags: --scale=<n> (PSD records, default 800), --level=<k> (default 3),
//        --size=<n> (query size, default 8), --pool=<n> (distinct queries,
//        default 24), --stream=<n> (stream length, default 256),
//        --reps=<n> (timed passes, default 5).

#include <cstdio>
#include <span>
#include <vector>

#include "core/batch_estimator.h"
#include "core/estimate_scratch.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "harness/bench_report.h"
#include "harness/flags.h"
#include "mining/lattice_builder.h"
#include "summary/lattice_summary.h"
#include "twig/twig.h"
#include "util/result.h"
#include "util/timer.h"
#include "workload/workload.h"

namespace treelattice {
namespace {

constexpr size_t kBatchSizes[] = {1, 8, 64, 256};

int Run(const Flags& flags, BenchReport* report) {
  const int scale = static_cast<int>(flags.GetInt("scale", 800));
  const int level = static_cast<int>(flags.GetInt("level", 3));
  const int query_size = static_cast<int>(flags.GetInt("size", 8));
  const size_t pool_size = static_cast<size_t>(flags.GetInt("pool", 24));
  const size_t stream_size = static_cast<size_t>(flags.GetInt("stream", 256));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  std::printf("=== Extension: Batched estimation (batch vs sequential) ===\n\n");

  DatasetOptions generate;
  generate.scale = scale;
  Document doc = GeneratePsd(generate);
  LatticeBuildOptions build;
  build.max_level = level;
  Result<LatticeSummary> summary = BuildLattice(doc, build, nullptr);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }

  WorkloadOptions workload;
  workload.query_size = query_size;
  workload.num_queries = pool_size;
  Result<std::vector<Twig>> pool = GeneratePositiveWorkload(doc, workload);
  if (!pool.ok()) {
    std::fprintf(stderr, "%s\n", pool.status().ToString().c_str());
    return 1;
  }
  if (pool->empty()) {
    std::fprintf(stderr, "no size-%d queries sampled\n", query_size);
    return 1;
  }
  // The stream cycles the pool: a batch larger than the pool carries
  // duplicates (the dedup stage's case), and consecutive batches repeat
  // structure (the shared-memo case) — the shape of a real estimation
  // burst from a plan enumerator.
  std::vector<Twig> stream;
  stream.reserve(stream_size);
  for (size_t i = 0; i < stream_size; ++i) {
    stream.push_back((*pool)[i % pool->size()]);
  }
  std::printf("PSD scale %d, lattice level %d, stream of %zu size-%d voting "
              "queries (%zu distinct)\n\n",
              scale, level, stream.size(), query_size, pool->size());

  RecursiveDecompositionEstimator::Options voting;
  voting.voting = true;
  RecursiveDecompositionEstimator sequential(&*summary, voting);
  BatchEstimator batch(&*summary, voting);
  EstimateScratch scratch;
  EstimateOptions sequential_options;
  sequential_options.scratch = &scratch;

  // Reference values from the sequential path (also the equality oracle).
  std::vector<double> expected(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    Result<double> value = sequential.Estimate(stream[i], sequential_options);
    if (!value.ok()) {
      std::fprintf(stderr, "sequential estimate failed: %s\n",
                   value.status().ToString().c_str());
      return 1;
    }
    expected[i] = *value;
  }

  // Equality gate: every batch size must reproduce the sequential bits on
  // every query of the stream, else the timings below compare different
  // algorithms.
  std::vector<EstimateResult> results(stream.size());
  for (size_t batch_size : kBatchSizes) {
    for (size_t start = 0; start < stream.size(); start += batch_size) {
      const size_t n = std::min(batch_size, stream.size() - start);
      Status status = batch.EstimateBatch(
          std::span<const Twig>(stream.data() + start, n), EstimateOptions(),
          std::span<EstimateResult>(results.data() + start, n));
      if (!status.ok()) {
        std::fprintf(stderr, "EstimateBatch failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      if (!results[i].status.ok()) {
        std::fprintf(stderr, "batch-%zu item %zu failed: %s\n", batch_size, i,
                     results[i].status.ToString().c_str());
        return 1;
      }
      if (results[i].estimate != expected[i]) {
        std::fprintf(stderr,
                     "value divergence at batch %zu, query %zu: "
                     "batch=%.17g sequential=%.17g\n",
                     batch_size, i, results[i].estimate, expected[i]);
        return 1;
      }
    }
  }
  std::printf("value check: %zu queries bit-identical to the sequential path "
              "at every batch size\n\n",
              stream.size());

  // Timed passes. Canonical codes are warm (as after parse in serve); the
  // sequential path keeps its scratch warm across queries the same way a
  // serve worker does.
  double sequential_seconds = 0.0;
  uint64_t answered = 0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    for (const Twig& query : stream) {
      if (!sequential.Estimate(query, sequential_options).ok()) return 1;
    }
    sequential_seconds += timer.ElapsedSeconds();
    answered += stream.size();
  }
  const double n = static_cast<double>(answered);
  const double sequential_qps = n / sequential_seconds;

  std::printf("%-24s %14s %14s\n", "path", "queries/s", "us/query");
  std::printf("%-24s %14.0f %14.2f\n", "sequential", sequential_qps,
              1e6 * sequential_seconds / n);

  double batch64_qps = sequential_qps;
  for (size_t batch_size : kBatchSizes) {
    double seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      for (size_t start = 0; start < stream.size(); start += batch_size) {
        const size_t chunk = std::min(batch_size, stream.size() - start);
        Status status = batch.EstimateBatch(
            std::span<const Twig>(stream.data() + start, chunk),
            EstimateOptions(),
            std::span<EstimateResult>(results.data() + start, chunk));
        if (!status.ok()) return 1;
      }
      seconds += timer.ElapsedSeconds();
    }
    const double qps = n / seconds;
    char label[32];
    std::snprintf(label, sizeof(label), "batch-%zu", batch_size);
    std::printf("%-24s %14.0f %14.2f\n", label, qps, 1e6 * seconds / n);
    char key[32];
    std::snprintf(key, sizeof(key), "batch%zu_qps", batch_size);
    report->AddResult(key, qps);
    if (batch_size == 64) batch64_qps = qps;
  }

  const double speedup = batch64_qps / sequential_qps;
  std::printf("\nspeedup: %.2fx (batch-64 vs sequential, target >= 2x)\n",
              speedup);

  report->AddResult("sequential_qps", sequential_qps);
  report->AddResult("speedup", speedup);
  report->AddResult("query_size", static_cast<double>(query_size));
  report->AddResult("stream", static_cast<double>(stream.size()));
  return 0;
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) {
  treelattice::Flags flags(argc, argv);
  treelattice::BenchReport report("bench_ext_batch", flags);
  return report.Finish(treelattice::Run(flags, &report));
}
