#ifndef TREELATTICE_CORE_RECURSIVE_ESTIMATOR_H_
#define TREELATTICE_CORE_RECURSIVE_ESTIMATOR_H_

#include <string>

#include "core/estimate_scratch.h"

#include "util/analysis_annotations.h"
#include "core/estimator.h"
#include "summary/lattice_summary.h"

namespace treelattice {

/// The recursive decomposition estimator (Section 3.2, Fig. 4).
///
/// A query found in the lattice summary is answered exactly. Otherwise a
/// pair of degree-1 nodes (u, v) is removed to form T1 = T \ v, T2 = T \ u
/// and their overlap T \ {u, v}, and by Lemma 1
///   s(T) ≈ s(T1) * s(T2) / s(T∩),
/// recursing until the pieces are inside the summary. With voting enabled
/// (the paper's extension) every valid leaf pair contributes an estimate at
/// each recursion level and the average is used; estimates are memoized per
/// distinct sub-twig, which makes the voting scheme equivalent to the
/// paper's level-wise averaging while keeping the recursion polynomial.
///
/// Every sub-twig the recursion reaches is the query minus some removed
/// degree-1 nodes, so it runs over node subsets of the query: a split is
/// two bit clears, and a per-query subset memo answers every repeated
/// visit. Only a subset seen for the first time gets a canonical code,
/// built straight from the query's arrays; the code probes the code memo
/// (same-shaped sub-twigs share one value) and then the summary. All of it
/// runs over an EstimateScratch, so after the query's one-time
/// canonicalization a warm-scratch estimate performs no heap allocation.
class RecursiveDecompositionEstimator : public SelectivityEstimator {
 public:
  /// How per-level vote estimates are combined (the paper averages;
  /// median is the robust-aggregation extension it lists as future work).
  enum class VoteAggregation { kMean, kMedian };

  struct Options {
    /// Average over all valid leaf pairs at every recursion level.
    bool voting = false;
    /// With voting, cap on leaf pairs considered per level (0 = all).
    /// Pairs are taken in a deterministic order: the query's own node
    /// index order at the top level, preorder below it.
    int max_votes_per_level = 0;
    /// Vote combination rule (ignored without voting).
    VoteAggregation aggregation = VoteAggregation::kMean;
  };

  /// The summary must outlive the estimator.
  explicit RecursiveDecompositionEstimator(const LatticeSummary* summary);
  RecursiveDecompositionEstimator(const LatticeSummary* summary,
                                  Options options);

  TL_HOT Result<double> Estimate(const Twig& query) override;

  /// Governed estimation: cooperatively checks `options`' budget once per
  /// sub-twig visit (lookup or split) and aborts the recursion with the
  /// budget error as soon as it trips. Uses options.scratch when provided.
  TL_HOT Result<double> Estimate(const Twig& query,
                                 const EstimateOptions& options) override;

  /// Governed estimation charging an external governor — used by the
  /// fixed-size estimator's recursive fallback so that one budget covers
  /// the whole query, not each fallback separately. `governor` may be
  /// nullptr for ungoverned estimation; `scratch` may be nullptr to use
  /// the internal thread_local scratch.
  Result<double> EstimateWithGovernor(const Twig& query,
                                      CostGovernor* governor);
  Result<double> EstimateWithGovernor(const Twig& query, CostGovernor* governor,
                                      EstimateScratch* scratch);

  std::string name() const override {
    if (!options_.voting) return "recursive";
    return options_.aggregation == VoteAggregation::kMedian
               ? "recursive+voting-median"
               : "recursive+voting";
  }

 private:
  /// One query's recursion: its twig, scratch and governor.
  struct Recursion {
    const Twig& query;
    EstimateScratch* scratch;
    CostGovernor* governor;  ///< nullptr when ungoverned
    int max_depth = 0;
  };

  /// Visits the sub-twig induced by the connected node subset `nodes` of
  /// the query (scratch->words() words), which has `size` nodes.
  Result<double> Visit(Recursion* r, const uint64_t* nodes, int size,
                       int depth);

  const LatticeSummary* summary_;
  Options options_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_RECURSIVE_ESTIMATOR_H_
