#ifndef TREELATTICE_CORE_DECOMPOSITION_RECORD_H_
#define TREELATTICE_CORE_DECOMPOSITION_RECORD_H_

#include <string>
#include <vector>

#include "core/estimate_scratch.h"
#include "twig/twig.h"
#include "util/analysis_annotations.h"

namespace treelattice {

/// What one query's Fig. 4 recursion did, written by the call that
/// produced the estimate (DESIGN.md §7): RecursiveDecompositionEstimator
/// fills the one EstimateOptions::record points at. `treelattice estimate
/// --explain` passes one per query into the call whose answers it prints.
///
/// entries[0] is the query, and its value is the returned estimate bit
/// for bit, in every vote mode and batch. Each distinct node subset the
/// recursion evaluated is one entry, in the order first visited. A vote is
/// t1 * t2 / overlap of the entries it names (0 when one of them is 0),
/// and a decomposed entry the mean or median of its votes, sorted. Only
/// the ladder's primary rung writes it, so a cache hit leaves it as it
/// was and a fallback answer leaves the primary's partial work;
/// a batch's duplicate query runs as its first occurrence, whose record
/// holds the work.
class DecompositionRecord {
 public:
  /// How an entry's value was obtained.
  enum class Source : uint8_t {
    kSummary,        ///< the summary's count
    kZero,           ///< absent at a size the summary holds completely
    kMemo,           ///< a same-shaped sub-twig's value, from this query
                     ///< or an earlier query of the batch
    kDecomposition,  ///< the aggregate of its Lemma 1 votes
  };

  /// Leaf pair (u, v)'s T1 = T \ v, T2 = T \ u and overlap T \ {u, v},
  /// each an index into `entries`.
  struct Vote {
    uint32_t t1 = 0;
    uint32_t t2 = 0;
    uint32_t overlap = 0;
    double value = 0.0;
  };

  struct Entry {
    std::vector<int> nodes;  ///< the sub-twig's query nodes, ascending
    std::string code;        ///< its canonical code
    Source source = Source::kSummary;
    double value = 0.0;
    std::vector<Vote> votes;  ///< decompositions only, in the order taken
  };

  std::vector<Entry> entries;

  /// An indented tree: the query unindented, its value at 17 significant
  /// digits and its source in a trailing [...] tag; below it each distinct
  /// sub-twig once, a decomposition's votes each with its T1, T2 and
  /// overlap indented beneath, and a sub-twig already shown as a one-line
  /// reference to its #number. `query` is the twig the record was made for.
  std::string Render(const Twig& query, const LabelDict& dict) const;

  // The recursion's side: Add() appends the entry of the node subset
  // `nodes` (its words) and returns its index, and AddVote() appends a
  // vote to `entry`. Opt-in, so off every serve and benchmark path: the
  // hot path reaches them only for a caller that asked for a record.
  TL_ALLOC_OK uint32_t Add(std::span<const uint64_t> nodes,
                           std::string_view code, Source source, double value);
  TL_ALLOC_OK void AddVote(uint32_t entry, std::span<const uint64_t> t1,
                           std::span<const uint64_t> t2,
                           std::span<const uint64_t> overlap, double value);

 private:
  /// Entry index by node subset; the value field holds the index.
  CodeMemo index_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_DECOMPOSITION_RECORD_H_
