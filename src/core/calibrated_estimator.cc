#include "core/calibrated_estimator.h"

#include <algorithm>
#include <cmath>

#include "match/matcher.h"
#include "workload/workload.h"

namespace treelattice {

Result<CalibratedEstimator> CalibratedEstimator::Calibrate(
    const Document& doc, SelectivityEstimator* inner) {
  return Calibrate(doc, inner, Options());
}

Result<CalibratedEstimator> CalibratedEstimator::Calibrate(
    const Document& doc, SelectivityEstimator* inner,
    const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("Calibrate: inner estimator is null");
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::InvalidArgument("Calibrate: confidence must be in (0,1)");
  }
  MatchCounter counter(doc);
  std::vector<double> factors(
      static_cast<size_t>(options.max_calibrated_size) + 1, 1.0);

  for (int size = 2; size <= options.max_calibrated_size; ++size) {
    WorkloadOptions workload;
    workload.seed = options.seed + static_cast<uint64_t>(size) * 131;
    workload.query_size = size;
    workload.num_queries = options.queries_per_size;
    Result<std::vector<Twig>> queries =
        GeneratePositiveWorkload(doc, workload);
    if (!queries.ok()) return queries.status();

    std::vector<double> ratios;
    for (const Twig& q : *queries) {
      double truth = static_cast<double>(counter.Count(q));
      Result<double> estimate = inner->Estimate(q);
      if (!estimate.ok()) return estimate.status();
      if (truth <= 0.0) continue;
      double est = std::max(*estimate, 1e-9);
      ratios.push_back(std::max(est / truth, truth / est));
    }
    double factor = 1.0;
    if (!ratios.empty()) {
      std::sort(ratios.begin(), ratios.end());
      size_t index = static_cast<size_t>(
          options.confidence * static_cast<double>(ratios.size() - 1));
      factor = ratios[index];
    }
    // Bounds can only widen with query size: decomposition depth grows
    // monotonically, so enforce monotone factors against sampling noise.
    factors[static_cast<size_t>(size)] =
        std::max(factor, factors[static_cast<size_t>(size) - 1]);
  }
  return CalibratedEstimator(inner, std::move(factors));
}

double CalibratedEstimator::FactorForSize(int size) const {
  if (size < 2) return 1.0;
  const int max_size = static_cast<int>(factor_by_size_.size()) - 1;
  if (size <= max_size) return factor_by_size_[static_cast<size_t>(size)];
  // Geometric extrapolation: one extra decomposition level multiplies the
  // error by roughly the last observed per-level growth.
  double last = factor_by_size_[static_cast<size_t>(max_size)];
  double prev = factor_by_size_[static_cast<size_t>(max_size) - 1];
  double growth = prev > 1.0 ? std::max(1.0, last / prev) : 1.0;
  double factor = last;
  for (int s = max_size; s < size; ++s) factor *= growth;
  return factor;
}

Result<double> CalibratedEstimator::Estimate(const Twig& query,
                                             CostGovernor& governor) {
  return inner_->Estimate(query, governor);
}

Result<BoundedEstimate> CalibratedEstimator::EstimateWithBound(
    const Twig& query) {
  BoundedEstimate out;
  TL_ASSIGN_OR_RETURN(out.estimate, inner_->Estimate(query));
  out.factor = FactorForSize(query.size());
  out.lower = out.estimate / out.factor;
  out.upper = out.estimate * out.factor;
  return out;
}

}  // namespace treelattice
