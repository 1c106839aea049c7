#include "harness/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace treelattice {

double SanityBound(const std::vector<double>& true_counts) {
  double p10 = Percentile(true_counts, 10.0);
  return std::max(10.0, p10);
}

double RelativeErrorPct(double true_count, double estimate, double sanity) {
  double denom = std::max(sanity, true_count);
  if (denom <= 0.0) return 0.0;
  return 100.0 * std::abs(true_count - estimate) / denom;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  if (std::isnan(pct)) return std::numeric_limits<double>::quiet_NaN();
  for (double v : values) {
    if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
  }
  pct = std::clamp(pct, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace treelattice
