// Approximate COUNT answering and interactive query refinement — the
// paper's second motivating scenario. An analyst explores a movie
// database; every query is first answered *approximately* from the
// summary (microseconds, no document access). Queries predicted to return
// overwhelming results get a refinement warning; the analyst narrows the
// twig until the predicted result set is manageable, and only then runs
// the exact (expensive) count. The summary is also persisted and reloaded
// to show that estimation needs no access to the original document.
//
// Run: ./build/examples/approximate_count

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "util/timer.h"

using namespace treelattice;

int main() {
  DatasetOptions generate;
  generate.scale = 3000;
  Document doc = GenerateImdb(generate);
  std::printf("movie database: %zu elements\n", doc.NumNodes());

  LatticeBuildOptions options;
  options.max_level = 4;
  Result<LatticeSummary> summary = BuildLattice(doc, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }

  // Persist the summary and reload it — the estimator below never touches
  // the document again. The file is this process's own and is removed
  // once read back.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("treelattice_imdb_" + std::to_string(getpid()) + ".summary"))
          .string();
  if (Status s = summary->SaveToFile(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<LatticeSummary> loaded = LatticeSummary::LoadFromFile(path);
  std::remove(path.c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("summary persisted and reloaded: %zu patterns, %zu bytes\n\n",
              loaded->NumPatterns(), loaded->MemoryBytes());

  RecursiveDecompositionEstimator::Options voting;
  voting.voting = true;
  RecursiveDecompositionEstimator estimator(&*loaded, voting);
  MatchCounter exact(doc);
  LabelDict* dict = &doc.mutable_dict();

  const double kOverwhelming = 2000.0;

  // The analyst's refinement session: from a broad query to a precise one.
  const char* session[] = {
      "movie(cast(actor))",
      "movie(cast(actor(role)))",
      "movie(cast(actor(role)),business)",
      "movie(cast(actor(role)),business(opening),awards)",
  };

  for (const char* text : session) {
    Result<Twig> query = Twig::Parse(text, dict);
    if (!query.ok()) {
      std::fprintf(stderr, "bad query: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    WallTimer timer;
    Result<double> estimate = estimator.Estimate(*query);
    double micros = timer.ElapsedMicros();
    if (!estimate.ok()) {
      std::fprintf(stderr, "%s\n", estimate.status().ToString().c_str());
      return 1;
    }
    std::printf("Q: %s\n", text);
    std::printf("   approx COUNT = %.0f   (estimated in %.0f us)\n",
                *estimate, micros);
    if (*estimate > kOverwhelming) {
      std::printf("   -> predicted to be overwhelming; refine the query\n\n");
      continue;
    }
    WallTimer exact_timer;
    unsigned long long truth = exact.Count(*query);
    std::printf("   -> small enough; exact COUNT = %llu (%.1f ms)\n\n",
                truth, exact_timer.ElapsedMillis());
  }
  return 0;
}
