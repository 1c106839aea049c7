#include "core/markov_path_estimator.h"

namespace treelattice {

MarkovPathEstimator::MarkovPathEstimator(const LatticeSummary* summary)
    : summary_(summary) {}

double MarkovPathEstimator::WindowCount(const std::vector<LabelId>& labels,
                                        size_t begin, size_t len) const {
  Twig window;
  int parent = -1;
  for (size_t i = 0; i < len; ++i) {
    parent = window.AddNode(labels[begin + i], parent);
  }
  auto count = summary_->Lookup(window);
  return count ? static_cast<double>(*count) : 0.0;
}

Result<double> MarkovPathEstimator::Estimate(const Twig& query,
                                             CostGovernor& governor) {
  if (query.empty()) {
    return Status::InvalidArgument("Estimate: empty query");
  }
  if (!query.IsPath()) {
    return Status::InvalidArgument(
        "MarkovPathEstimator only supports path queries");
  }
  // Label sequence root -> leaf.
  std::vector<LabelId> labels;
  labels.reserve(static_cast<size_t>(query.size()));
  int node = query.root();
  while (true) {
    labels.push_back(query.label(node));
    if (query.children(node).empty()) break;
    node = query.children(node)[0];
  }

  const size_t n = labels.size();
  const size_t m = static_cast<size_t>(summary_->max_level());
  if (n <= m) {
    return WindowCount(labels, 0, n);
  }
  double estimate = WindowCount(labels, 0, m);
  if (estimate <= 0.0) return 0.0;
  for (size_t i = 1; i + m <= n; ++i) {
    if (Status s = governor.Charge(); !s.ok()) return s;
    double numer = WindowCount(labels, i, m);
    if (numer <= 0.0) return 0.0;
    double denom = WindowCount(labels, i, m - 1);
    if (denom <= 0.0) return 0.0;
    estimate *= numer / denom;
  }
  return estimate;
}

}  // namespace treelattice
