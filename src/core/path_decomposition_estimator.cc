#include "core/path_decomposition_estimator.h"

#include <vector>

namespace treelattice {

namespace {

/// Builds the path twig for the label sequence root..node.
Twig PathTo(const Twig& query, int node) {
  std::vector<LabelId> labels;
  for (int n = node; n != -1; n = query.parent(n)) {
    labels.push_back(query.label(n));
  }
  Twig path;
  int parent = -1;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    parent = path.AddNode(*it, parent);
  }
  return path;
}

}  // namespace

PathDecompositionEstimator::PathDecompositionEstimator(
    const LatticeSummary* summary)
    : summary_(summary), path_estimator_(summary) {}

Result<double> PathDecompositionEstimator::Estimate(const Twig& query,
                                                    CostGovernor& governor) {
  if (query.empty()) {
    return Status::InvalidArgument("Estimate: empty query");
  }
  double numerator = 1.0;
  double denominator = 1.0;
  for (int node = 0; node < query.size(); ++node) {
    size_t fanout = query.children(node).size();
    if (fanout == 0) {
      double s;
      TL_ASSIGN_OR_RETURN(s, path_estimator_.Estimate(PathTo(query, node), governor));
      if (s <= 0.0) return 0.0;
      numerator *= s;
    } else if (fanout >= 2) {
      double s;
      TL_ASSIGN_OR_RETURN(s, path_estimator_.Estimate(PathTo(query, node), governor));
      if (s <= 0.0) return 0.0;
      for (size_t i = 1; i < fanout; ++i) denominator *= s;
    }
  }
  return numerator / denominator;
}

}  // namespace treelattice
