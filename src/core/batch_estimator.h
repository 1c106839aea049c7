#ifndef TREELATTICE_CORE_BATCH_ESTIMATOR_H_
#define TREELATTICE_CORE_BATCH_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/degrading_estimator.h"
#include "core/estimate_cache.h"
#include "core/estimate_scratch.h"
#include "core/estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"
#include "util/analysis_annotations.h"

namespace treelattice {

/// Per-query outcome of a batch estimation. `estimate`, `rung`, `degraded`
/// and `cached` are meaningful only when `status` is OK.
struct EstimateResult {
  Status status;
  double estimate = 0.0;
  /// The ladder rung that answered; a cache hit reports kPrimary, the only
  /// rung whose answers are cached.
  DegradingEstimator::Rung rung = DegradingEstimator::Rung::kPrimary;
  /// True when the floor (the fixed-size rung) answered.
  bool degraded = false;
  /// True when the answer came from the EstimateCache.
  bool cached = false;
  /// True when an earlier query of the batch has the same canonical code;
  /// the result is that query's.
  bool duplicate = false;
  /// Work steps the ladder's rungs charged to answer the query
  /// (DegradedEstimate::work_steps): 0 for a cache hit, and a duplicate
  /// reports its first occurrence's.
  uint64_t work_steps = 0;
  /// Time EstimateBatch spent on the query: its cache probe and, on a
  /// miss, its estimation. It is added to the value passed in, so a caller
  /// may seed it with its own per-query time (serve seeds the parse time).
  /// A duplicate reports its first occurrence's whole time.
  double wall_micros = 0.0;
};

/// The one entry that estimates a set of queries (DESIGN.md §14); a
/// single query is a batch of one. EstimateBatch runs four stages:
///
///   1. dedup: identical queries (by canonical code) collapse onto their
///      first occurrence, so each distinct query is estimated once;
///   2. cache read: with an EstimateCache, each distinct query probes it
///      once, under the cache version;
///   3. estimation: each miss runs through the DegradingEstimator ladder
///      (primary, then the fixed-size floor) under its own budget, over one
///      code memo reset once per call, so a basic twig shared by several
///      queries is probed and voted once;
///   4. cache insert and scatter: every answer the primary rung gave goes
///      into the cache (it is the answer an unlimited call gives, budget
///      or not), and every duplicate takes its first occurrence's result.
///
/// Budgets are per item: the ladder builds each distinct query's governors
/// from its own options, so no query's budget depends on what ran before
/// it. A memo entry is a function of its code, so a batch answers each
/// query bit for bit as a call of its own does, in any spelling.
/// Not thread-safe: one BatchEstimator per thread. The cache may be shared
/// between threads.
class BatchEstimator {
 public:
  /// The summary, and the cache when given, must outlive the estimator.
  /// `cache_version` scopes every cache read and insert: the version of
  /// the summary this estimator serves (EstimateCache drops entries of
  /// other versions).
  explicit BatchEstimator(
      const LatticeSummary* summary,
      RecursiveDecompositionEstimator::Options primary = {},
      EstimateCache* cache = nullptr, int64_t cache_version = 0);

  /// Estimates queries[i] into results[i]; the spans must have the same
  /// length. `options` holds one budget per query, or a single one that
  /// applies to every query; a duplicate runs under its first occurrence's
  /// budget. A positive `deadline_millis` starts that query's deadline
  /// when its own estimation starts. Per-query failures land in
  /// results[i].status; an empty query fails with kInvalidArgument.
  TL_HOT Status EstimateBatch(std::span<const Twig> queries,
                              std::span<const EstimateOptions> options,
                              std::span<EstimateResult> results);
  TL_HOT Status EstimateBatch(std::span<const Twig> queries,
                              const EstimateOptions& options,
                              std::span<EstimateResult> results);

 private:
  static constexpr uint32_t kNoGroup = static_cast<uint32_t>(-1);

  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kNoGroup;
  };

  /// Groups `queries` by canonical code: a flat open-addressing table
  /// keyed by the 64-bit code hash, with the full code verified on every
  /// hash match. Afterwards group_[i] indexes distinct_ with queries[i]'s
  /// group (kNoGroup for an empty query), and distinct_ lists the first
  /// query of each group, in order. A single query never builds the table.
  // Amortized: the buffers keep their capacity across calls.
  TL_ALLOC_OK void Group(std::span<const Twig> queries);

  DegradingEstimator ladder_;
  EstimateCache* const cache_;
  const int64_t cache_version_;
  EstimateScratch scratch_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> group_;
  std::vector<uint32_t> distinct_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_BATCH_ESTIMATOR_H_
