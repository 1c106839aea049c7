#ifndef TREELATTICE_HARNESS_METRICS_H_
#define TREELATTICE_HARNESS_METRICS_H_

#include <cstdint>
#include <vector>

namespace treelattice {

/// Sanity bound for the paper's error metric (Section 5.1): the 10th
/// percentile of the true query counts in the workload, floored at 10.
/// An empty workload has no percentile, so the bound is the floor (10).
double SanityBound(const std::vector<double>& true_counts);

/// The paper's error for one query: |s - ŝ| / max(sanity, s), reported as a
/// percentage.
double RelativeErrorPct(double true_count, double estimate, double sanity);

/// Mean of a vector (0 for empty).
double Mean(const std::vector<double>& values);

/// Percentile of `values` by linear interpolation between closest ranks
/// (operates on a sorted copy). Edge cases:
///   - empty input         -> 0.0
///   - single element      -> that element, for every pct
///   - pct outside [0,100] -> clamped (pct<=0 -> min, pct>=100 -> max)
///   - NaN pct or NaN values in the input -> NaN
double Percentile(std::vector<double> values, double pct);

}  // namespace treelattice

#endif  // TREELATTICE_HARNESS_METRICS_H_
