// Extension benchmark: summary persistence cost. The ROADMAP north-star is
// a service that periodically persists and reloads its K-lattice summary;
// this measures the three operations on the new TLSUMMARY v2 container —
// checksummed atomic save (fsync included), load, and checksum-only verify
// — against the legacy v1 text format, over a real mined lattice.
//
// Shape to expect: v2 save is dominated by the fsync; v2 load beats v1
// load (binary decode vs text parse); verify is the cheapest since it
// never builds the in-memory lattice.
//
// Flags: --scale=<n> (PSD records, default 2000), --level=<k> (default 4),
//        --iters=<n> (timed repetitions, default 5), --seed=<n>.
// Its two summary files live in $TMPDIR (default /tmp) and are removed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/datasets.h"
#include "harness/bench_report.h"
#include "harness/flags.h"
#include "io/env.h"
#include "mining/lattice_builder.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace treelattice {
namespace {

uint64_t GetFileSizeOrZero(Env* env, const std::string& path) {
  Result<uint64_t> size = env->GetFileSize(path);
  return size.ok() ? *size : 0;
}

int Run(const Flags& flags) {
  const int scale = static_cast<int>(flags.GetInt("scale", 2000));
  const int level = static_cast<int>(flags.GetInt("level", 4));
  const int iters = static_cast<int>(flags.GetInt("iters", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::printf("=== Extension: Summary Persistence (save/load/verify) ===\n\n");

  DatasetOptions generate;
  generate.seed = seed;
  generate.scale = scale;
  Document doc = GeneratePsd(generate);

  LatticeBuildOptions options;
  options.max_level = level;
  Result<LatticeSummary> summary = BuildLattice(doc, options, nullptr);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("lattice: %zu patterns, levels 1-%d, %s in memory\n\n",
              summary->NumPatterns(), level,
              HumanBytes(summary->MemoryBytes()).c_str());

  Env* env = Env::Default();
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string stem = std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
                           "/tl_bench_persistence." +
                           std::to_string(getpid());
  const std::string v2_path = stem + ".tls";
  const std::string v1_path = stem + ".txt";

  // One untimed save of each format for the file-size report and so the
  // load benchmarks have a file to read.
  if (Status s = SaveSummaryV2(*summary, &doc.dict(), env, v2_path);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = summary->SaveToFileV1(v1_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  uint64_t v2_bytes = GetFileSizeOrZero(env, v2_path);
  uint64_t v1_bytes = GetFileSizeOrZero(env, v1_path);
  std::printf("file size: v2 %s (dict embedded)  v1 %s (+ .dict sidecar)\n\n",
              HumanBytes(v2_bytes).c_str(), HumanBytes(v1_bytes).c_str());

  auto report = [&](const char* name, double seconds, uint64_t bytes) {
    std::printf("%-28s %8.2f ms   %8.1f MB/s\n", name,
                seconds * 1e3 / iters,
                static_cast<double>(bytes) * iters / seconds / 1e6);
  };

  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    if (!SaveSummaryV2(*summary, &doc.dict(), env, v2_path).ok()) return 1;
  }
  report("v2 save (atomic+fsync)", timer.ElapsedSeconds(), v2_bytes);

  timer.Restart();
  for (int i = 0; i < iters; ++i) {
    if (!summary->SaveToFileV1(v1_path).ok()) return 1;
  }
  report("v1 save (text, no fsync)", timer.ElapsedSeconds(), v1_bytes);

  timer.Restart();
  for (int i = 0; i < iters; ++i) {
    Result<LoadedSummary> loaded = LoadSummary(env, v2_path);
    if (!loaded.ok() || loaded->salvaged) return 1;
  }
  report("v2 load", timer.ElapsedSeconds(), v2_bytes);

  timer.Restart();
  for (int i = 0; i < iters; ++i) {
    if (!LatticeSummary::LoadFromFile(v1_path).ok()) return 1;
  }
  report("v1 load", timer.ElapsedSeconds(), v1_bytes);

  timer.Restart();
  for (int i = 0; i < iters; ++i) {
    Result<VerifyReport> verified = VerifySummaryFile(env, v2_path);
    if (!verified.ok() || !verified->intact) return 1;
  }
  report("v2 verify (checksums only)", timer.ElapsedSeconds(), v2_bytes);

  for (const std::string& path : {v2_path, v1_path}) {
    Status removed = env->DeleteFile(path);
    if (!removed.ok()) {
      std::fprintf(stderr, "cleanup of %s failed: %s\n", path.c_str(),
                   removed.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) {
  treelattice::Flags flags(argc, argv);
  treelattice::BenchReport report("bench_ext_persistence", flags);
  return report.Finish(treelattice::Run(flags));
}
