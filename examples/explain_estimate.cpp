// Explaining an estimate: compile an XPath query to a twig, estimate its
// selectivity, and print the decomposition the estimator recorded while
// answering: which lattice entries produced the number and how the votes
// combined them — the "EXPLAIN" of a cardinality estimator, useful when
// debugging optimizer plans.
//
// Run: ./build/examples/explain_estimate

#include <cstdio>

#include "core/decomposition_record.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "xpath/xpath.h"

using namespace treelattice;

int main() {
  DatasetOptions generate;
  generate.scale = 1500;
  Document doc = GenerateXmark(generate);
  std::printf("auction document: %zu elements\n", doc.NumNodes());

  LatticeBuildOptions options;
  options.max_level = 3;  // small lattice => deeper, more interesting traces
  Result<LatticeSummary> summary = BuildLattice(doc, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("3-lattice: %zu patterns, %.1f KB\n\n", summary->NumPatterns(),
              double(summary->MemoryBytes()) / 1024.0);

  RecursiveDecompositionEstimator::Options voting;
  voting.voting = true;
  RecursiveDecompositionEstimator estimator(&*summary, voting);
  MatchCounter exact(doc);

  for (const char* xpath :
       {"/open_auction[bidder/date][seller]",
        "item[payment][mailbox/mail]",
        "person[address/city][creditcard]"}) {
    Result<Twig> query = CompileXPath(xpath, &doc.mutable_dict());
    if (!query.ok()) {
      std::fprintf(stderr, "%s: %s\n", xpath,
                   query.status().ToString().c_str());
      return 1;
    }
    // The estimator fills the record while it answers, so the record's
    // root is the estimate itself, bit for bit.
    DecompositionRecord record;
    CostGovernor unlimited;
    Result<double> estimate =
        estimator.Estimate(*query, unlimited, /*scratch=*/nullptr, &record);
    if (!estimate.ok() || record.entries.empty() ||
        record.entries[0].value != *estimate) {
      std::fprintf(stderr, "estimation failed for %s\n", xpath);
      return 1;
    }
    std::printf("XPath:    %s\n", xpath);
    std::printf("estimate: %.2f   true: %llu\n", *estimate,
                static_cast<unsigned long long>(exact.Count(*query)));
    std::printf("%s\n", record.Render(*query, doc.dict()).c_str());
  }
  return 0;
}
