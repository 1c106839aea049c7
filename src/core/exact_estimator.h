#ifndef TREELATTICE_CORE_EXACT_ESTIMATOR_H_
#define TREELATTICE_CORE_EXACT_ESTIMATOR_H_

#include <string>

#include "core/estimator.h"
#include "match/matcher.h"

namespace treelattice {

/// Ground-truth "estimator": exact counting over the document. Used by the
/// experiment harness to obtain true selectivities, and usable wherever a
/// SelectivityEstimator is expected.
class ExactEstimator : public SelectivityEstimator {
 public:
  /// The document must outlive the estimator.
  explicit ExactEstimator(const Document& doc) : counter_(doc) {}

  using SelectivityEstimator::Estimate;

  /// Exact counting charges nothing.
  Result<double> Estimate(const Twig& query, CostGovernor&) override {
    if (query.empty()) {
      return Status::InvalidArgument("Estimate: empty query");
    }
    return static_cast<double>(counter_.Count(query));
  }

  std::string name() const override { return "exact"; }

  const MatchCounter& counter() const { return counter_; }

 private:
  MatchCounter counter_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_EXACT_ESTIMATOR_H_
