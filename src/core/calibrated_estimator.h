#ifndef TREELATTICE_CORE_CALIBRATED_ESTIMATOR_H_
#define TREELATTICE_CORE_CALIBRATED_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "summary/lattice_summary.h"
#include "xml/document.h"

namespace treelattice {

/// An estimate annotated with an empirical error interval.
struct BoundedEstimate {
  double estimate = 0.0;
  double lower = 0.0;   ///< estimate / factor
  double upper = 0.0;   ///< estimate * factor
  double factor = 1.0;  ///< calibrated multiplicative error bound
};

/// Empirical error bounds for a decomposition estimator — the "error bound
/// associated with the estimation" that Section 6 of the paper lists as
/// future work.
///
/// At construction time the calibrator samples positive queries of each
/// size from the summarized document, compares estimates against exact
/// counts, and records the per-size `confidence`-quantile of the
/// multiplicative error max(est/true, true/est). At query time the bound
/// for the query's size (extrapolated geometrically beyond the calibrated
/// range, since decomposition error compounds per recursion level) widens
/// the point estimate into an interval with approximately `confidence`
/// empirical coverage. Calibration costs one workload evaluation and needs
/// the document only at build time; the calibrated object afterwards works
/// purely from the summary.
class CalibratedEstimator : public SelectivityEstimator {
 public:
  struct Options {
    /// Largest query size to calibrate directly; larger queries use
    /// geometric extrapolation.
    int max_calibrated_size = 8;
    /// Queries sampled per size.
    size_t queries_per_size = 60;
    /// Target one-sided coverage of the interval.
    double confidence = 0.9;
    uint64_t seed = 99;
  };

  /// Calibrates `inner` (which must outlive this object) against `doc`.
  static Result<CalibratedEstimator> Calibrate(const Document& doc,
                                               SelectivityEstimator* inner);
  static Result<CalibratedEstimator> Calibrate(const Document& doc,
                                               SelectivityEstimator* inner,
                                               const Options& options);

  using SelectivityEstimator::Estimate;

  /// Point estimate: the wrapped estimator's, charging `governor`.
  Result<double> Estimate(const Twig& query, CostGovernor& governor) override;

  /// Estimate plus the calibrated error interval.
  Result<BoundedEstimate> EstimateWithBound(const Twig& query);

  /// Calibrated multiplicative bound for a query of `size` nodes.
  double FactorForSize(int size) const;

  std::string name() const override {
    return "calibrated(" + inner_->name() + ")";
  }

 private:
  CalibratedEstimator(SelectivityEstimator* inner,
                      std::vector<double> factor_by_size)
      : inner_(inner), factor_by_size_(std::move(factor_by_size)) {}

  SelectivityEstimator* inner_;
  /// factor_by_size_[s] is the bound for queries of size s (index 0/1
  /// unused, factor 1).
  std::vector<double> factor_by_size_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_CALIBRATED_ESTIMATOR_H_
