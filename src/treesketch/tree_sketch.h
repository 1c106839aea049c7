#ifndef TREELATTICE_TREESKETCH_TREE_SKETCH_H_
#define TREELATTICE_TREESKETCH_TREE_SKETCH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "twig/twig.h"
#include "util/result.h"
#include "util/rng.h"
#include "xml/document.h"

namespace treelattice {

/// Options for TreeSketch synopsis construction.
struct TreeSketchOptions {
  /// Target synopsis footprint in bytes (the paper uses 50 KB). Clustering
  /// granularity — and thus accuracy — degrades as the budget shrinks.
  size_t memory_budget_bytes = 50 * 1024;

  /// Number of candidate same-label cluster pairs evaluated per greedy
  /// merge step. 0 (the default) evaluates *every* same-label pair each
  /// step, as the original bottom-up clustering does — quadratically
  /// expensive, which is precisely the construction-cost behaviour the
  /// paper's Table 3 measures. Set a positive sample size for a fast
  /// approximate build.
  size_t merge_candidates_per_step = 0;

  /// Seed for candidate-pair sampling; fixed for reproducibility.
  uint64_t seed = 0x7ee5e7c5ULL;
};

/// Build statistics (Table 3 inputs).
struct TreeSketchStats {
  double build_seconds = 0.0;
  size_t initial_stable_clusters = 0;  ///< before budget-driven merging
  size_t clusters = 0;
  size_t edges = 0;
  size_t bytes = 0;
  size_t merges_performed = 0;
};

/// Re-implementation of the TreeSketches graph synopsis (Polyzotis,
/// Garofalakis & Ioannidis, SIGMOD 2004), the paper's baseline.
///
/// Construction first computes the *count-stable* partition of document
/// nodes (iterated refinement of the label partition by per-child-cluster
/// child counts — a perfect synopsis), then greedily merges same-label
/// clusters until the byte budget is met, following the original bottom-up
/// clustering formulation. Each synopsis edge (u, w) carries the average
/// number of w-children per node of u; a twig estimate multiplies the root
/// cluster cardinality by edge weights along the query, summing over all
/// consistent cluster assignments. Section 5.3 of the reproduced paper
/// explains why this multiplicative scheme compounds error when child
/// counts have high variance — behaviour this implementation preserves.
class TreeSketch {
 public:
  /// An empty synopsis (estimates everything as 0); assign from Build().
  TreeSketch() = default;

  /// Builds the synopsis for `doc`.
  static Result<TreeSketch> Build(const Document& doc,
                                  const TreeSketchOptions& options = {},
                                  TreeSketchStats* stats = nullptr);

  /// Estimated number of matches of `query`.
  Result<double> EstimateCount(const Twig& query) const;

  size_t NumClusters() const { return cluster_label_.size(); }
  size_t NumEdges() const;

  /// Synopsis footprint: 12 bytes per cluster (label + cardinality) plus
  /// 16 bytes per weighted edge.
  size_t MemoryBytes() const;

 private:
  std::vector<LabelId> cluster_label_;
  std::vector<uint64_t> cluster_size_;
  /// Edge weights: avg children of cluster `child` per node of `parent`.
  std::vector<std::unordered_map<uint32_t, double>> out_edges_;
  /// Clusters per label, for query anchoring.
  std::unordered_map<LabelId, std::vector<uint32_t>> clusters_by_label_;
};

/// Adapter exposing TreeSketch through the SelectivityEstimator interface.
class TreeSketchEstimator : public SelectivityEstimator {
 public:
  /// The sketch must outlive the estimator.
  explicit TreeSketchEstimator(const TreeSketch* sketch) : sketch_(sketch) {}

  using SelectivityEstimator::Estimate;

  /// The sketch's cost is bounded by its size; it charges nothing.
  Result<double> Estimate(const Twig& query, CostGovernor&) override {
    return sketch_->EstimateCount(query);
  }

  std::string name() const override { return "treesketches"; }

 private:
  const TreeSketch* sketch_;
};

}  // namespace treelattice

#endif  // TREELATTICE_TREESKETCH_TREE_SKETCH_H_
