#ifndef TREELATTICE_CORE_BATCH_ESTIMATOR_H_
#define TREELATTICE_CORE_BATCH_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/estimate_scratch.h"
#include "core/estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"
#include "util/analysis_annotations.h"
#include "util/arena.h"

namespace treelattice {

/// Per-query outcome of a batch estimation. `estimate` is meaningful only
/// when `status` is OK.
struct EstimateResult {
  Status status;
  double estimate = 0.0;
};

/// Whole-query dedup by canonical code (DESIGN.md §14): a flat
/// open-addressing table keyed by the 64-bit canonical-code hash, with the
/// full code verified on every hash match, groups identical queries so each
/// distinct query is estimated once. BatchEstimator and every serve worker
/// keep one: the buffers retain their capacity across calls, so a warm
/// instance allocates nothing, and a single query never builds the table.
/// Not thread-safe.
class QueryDedup {
 public:
  static constexpr uint32_t kNoGroup = static_cast<uint32_t>(-1);

  /// Groups `queries` by canonical code. Afterwards group(i) indexes
  /// distinct() with queries[i]'s group (kNoGroup for an empty query), and
  /// distinct() lists the index of each group's first query, in order.
  // Amortized: the buffers keep their capacity across calls.
  TL_ALLOC_OK void Group(std::span<const Twig> queries);

  uint32_t group(size_t i) const { return group_[i]; }
  std::span<const uint32_t> distinct() const { return distinct_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kNoGroup;
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> group_;
  std::vector<uint32_t> distinct_;
};

/// Batched front end to the recursive decomposition estimator
/// (DESIGN.md §14). A batch of twig queries is estimated in two stages:
///
///   1. dedup identical queries through QueryDedup, so each distinct query
///      is estimated exactly once;
///   2. run the recursive estimator over the distinct queries with one
///      batch-scoped memo (EstimateScratch::BeginBatch), so a basic twig
///      shared by several queries is probed and voted once.
///
/// Per-batch staging lives in a MonotonicArena that resets in O(1) per
/// batch. Because memo entries are exact per-code values inserted only
/// after full computation, batch results are bit-identical to estimating
/// each query sequentially with a fresh memo (the equality gate in
/// bench_ext_batch asserts this).
///
/// Governed batches share one CostGovernor: the deadline and step budget
/// cover the whole batch, and queries after a budget trip report the trip
/// status. Not thread-safe: one BatchEstimator per thread.
class BatchEstimator {
 public:
  /// The summary must outlive the estimator.
  explicit BatchEstimator(const LatticeSummary* summary);
  BatchEstimator(const LatticeSummary* summary,
                 RecursiveDecompositionEstimator::Options options);

  /// Estimates queries[i] into results[i]. `results` must have the same
  /// length as `queries`; per-query failures land in results[i].status.
  /// options.deadline / max_work_steps / cancel govern the whole batch;
  /// options.scratch, when provided, supplies the shared memo (otherwise
  /// an internal scratch is used).
  TL_HOT Status EstimateBatch(std::span<const Twig> queries,
                              const EstimateOptions& options,
                              std::span<EstimateResult> results);

  std::string name() const { return "batch+" + estimator_.name(); }

 private:
  /// Status staging for the distinct queries of one batch (Status owns a
  /// string, so it cannot live in the arena). Capacity is retained across
  /// batches.
  // Amortized: assign() reuses capacity once it reaches the largest batch.
  TL_ALLOC_OK Status* StageStatuses(size_t n);

  RecursiveDecompositionEstimator estimator_;
  QueryDedup dedup_;
  MonotonicArena arena_;
  EstimateScratch scratch_;
  std::vector<Status> status_staging_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_BATCH_ESTIMATOR_H_
