#include "core/degrading_estimator.h"

#include "core/estimator_metrics.h"
#include "obs/trace.h"

namespace treelattice {

namespace {

/// Budget codes that trigger a step down the ladder. kCancelled is
/// deliberately absent: cancellation aborts the whole request.
bool ShouldDegrade(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kResourceExhausted;
}

/// Fraction of the original deadline granted afresh to each fallback rung;
/// 0.5 bounds the whole ladder at ~2x the deadline.
constexpr double kFallbackDeadlineFraction = 0.5;

}  // namespace

std::string_view DegradingEstimator::RungName(Rung rung) {
  switch (rung) {
    case Rung::kPrimary:
      return "primary";
    case Rung::kFixedSize:
      return "fixed-size";
    case Rung::kMarkovPath:
      return "markov-path";
  }
  return "unknown";
}

DegradingEstimator::DegradingEstimator(const LatticeSummary* summary)
    : DegradingEstimator(summary, Options()) {}

DegradingEstimator::DegradingEstimator(const LatticeSummary* summary,
                                       Options options)
    : primary_(summary, options.primary),
      fixed_size_(summary),
      markov_(summary) {}

Result<double> DegradingEstimator::Estimate(const Twig& query) {
  return primary_.Estimate(query);
}

Result<double> DegradingEstimator::Estimate(const Twig& query,
                                            const EstimateOptions& options) {
  Result<DegradedEstimate> result = EstimateDegraded(query, options);
  if (!result.ok()) return result.status();
  return result->estimate;
}

EstimateOptions DegradingEstimator::FallbackBudget(
    const EstimateOptions& original) const {
  EstimateOptions fallback;
  fallback.cancel = original.cancel;
  fallback.max_work_steps = original.max_work_steps;
  fallback.scratch = original.scratch;
  fallback.work_steps = original.work_steps;  // rungs accumulate into one tally
  if (original.deadline_millis > 0.0) {
    double grace = original.deadline_millis * kFallbackDeadlineFraction;
    fallback.deadline = Deadline::After(grace);
    fallback.deadline_millis = grace;
  } else if (!original.deadline.is_infinite()) {
    // Deadline of unknown duration: grant whatever remains of it, or half
    // a millisecond of grace when already past due.
    double remaining = original.deadline.remaining_millis();
    double grace = remaining > 0.5 ? remaining : 0.5;
    fallback.deadline = Deadline::After(grace);
    fallback.deadline_millis = grace;
  }
  return fallback;
}

Result<DegradingEstimator::DegradedEstimate>
DegradingEstimator::EstimateDegraded(const Twig& query,
                                     const EstimateOptions& options) {
  obs::TraceSpan span("estimator.degrading", "core");
  span.SetArg("query_size", static_cast<uint64_t>(query.size()));
  EstimatorMetrics& metrics = EstimatorMetrics::Get();

  DegradedEstimate out;
  Result<double> primary = primary_.Estimate(query, options);
  if (primary.ok()) {
    out.estimate = *primary;
    out.rung = Rung::kPrimary;
    return out;
  }
  if (!ShouldDegrade(primary.status())) return primary.status();
  metrics.deadline_exceeded->Increment();
  out.degraded = true;
  out.primary_status = primary.status();

  // Rung 1: the paper's fixed-size estimator with a fresh grace budget —
  // mostly summary lookups, so it nearly always answers in time.
  EstimateOptions grace = FallbackBudget(options);
  Result<double> fixed = fixed_size_.Estimate(query, grace);
  if (fixed.ok()) {
    out.estimate = *fixed;
    out.rung = Rung::kFixedSize;
    metrics.degraded->Increment();
    return out;
  }
  if (!ShouldDegrade(fixed.status())) return fixed.status();

  // Rung 2 (path queries only): the markov sweep, ungoverned — its work is
  // strictly linear in the query size, so it is the ladder's floor.
  if (query.IsPath()) {
    Result<double> markov = markov_.Estimate(query);
    if (markov.ok()) {
      out.estimate = *markov;
      out.rung = Rung::kMarkovPath;
      metrics.degraded->Increment();
      return out;
    }
  }

  // Every rung exhausted: report the primary failure, which names the
  // original budget.
  return primary.status();
}

}  // namespace treelattice
