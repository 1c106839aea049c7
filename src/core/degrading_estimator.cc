#include "core/degrading_estimator.h"

#include "core/estimator_metrics.h"
#include "obs/trace.h"

namespace treelattice {

std::string_view DegradingEstimator::RungName(Rung rung) {
  switch (rung) {
    case Rung::kPrimary:
      return "primary";
    case Rung::kFixedSize:
      return "fixed-size";
  }
  return "unknown";
}

DegradingEstimator::DegradingEstimator(const LatticeSummary* summary)
    : DegradingEstimator(summary, Options()) {}

DegradingEstimator::DegradingEstimator(const LatticeSummary* summary,
                                       Options options)
    : primary_(summary, options.primary), fixed_size_(summary) {}

Result<DegradingEstimator::DegradedEstimate>
DegradingEstimator::EstimateDegraded(const Twig& query,
                                     const EstimateOptions& options,
                                     EstimateScratch* scratch) {
  obs::TraceSpan span("estimator.degrading", "core");
  span.SetArg("query_size", static_cast<uint64_t>(query.size()));
  EstimatorMetrics& metrics = EstimatorMetrics::Get();

  DegradedEstimate out;
  CostGovernor primary_budget = options.MakeGovernor();
  Result<double> primary =
      primary_.Estimate(query, primary_budget, scratch, options.record);
  out.work_steps = primary_budget.steps();
  if (primary.ok()) {
    out.estimate = *primary;
    out.rung = Rung::kPrimary;
    return out;
  }
  // Only a budget trip steps down: kCancelled wants no answer at all.
  const StatusCode code = primary.status().code();
  if (code != StatusCode::kDeadlineExceeded &&
      code != StatusCode::kResourceExhausted) {
    return primary.status();
  }
  metrics.deadline_exceeded->Increment();

  // The floor: bounded by the query's size alone, so only a cancel stops
  // it.
  CostGovernor floor_budget(Deadline::Infinite(), options.cancel, 0);
  Result<double> floor = fixed_size_.Estimate(query, floor_budget);
  out.work_steps += floor_budget.steps();
  if (!floor.ok()) return floor.status();
  out.estimate = *floor;
  out.rung = Rung::kFixedSize;
  out.degraded = true;
  out.primary_status = primary.status();
  metrics.degraded->Increment();
  return out;
}

}  // namespace treelattice
