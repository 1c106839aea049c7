#include "core/recursive_estimator.h"

#include <algorithm>

#include "core/estimator_metrics.h"
#include "obs/trace.h"
#include "twig/decompose.h"

namespace treelattice {

namespace {

/// Fallback scratch for callers that do not supply one (ungoverned
/// Estimate(), CLI paths, tests). One per thread: estimation never runs
/// re-entrantly on a thread — nested work (fixed-size fallback) issues
/// sequential top-level calls, each of which resets the memo.
EstimateScratch& ThreadLocalScratch() {
  thread_local EstimateScratch scratch;
  return scratch;
}

}  // namespace

RecursiveDecompositionEstimator::RecursiveDecompositionEstimator(
    const LatticeSummary* summary)
    : RecursiveDecompositionEstimator(summary, Options()) {}

RecursiveDecompositionEstimator::RecursiveDecompositionEstimator(
    const LatticeSummary* summary, Options options)
    : summary_(summary), options_(options) {}

Result<double> RecursiveDecompositionEstimator::Estimate(const Twig& query) {
  return EstimateWithGovernor(query, nullptr, nullptr);
}

Result<double> RecursiveDecompositionEstimator::Estimate(
    const Twig& query, const EstimateOptions& options) {
  if (!options.governed()) {
    return EstimateWithGovernor(query, nullptr, options.scratch);
  }
  CostGovernor governor = options.MakeGovernor();
  Result<double> result =
      EstimateWithGovernor(query, &governor, options.scratch);
  if (options.work_steps != nullptr) *options.work_steps += governor.steps();
  return result;
}

Result<double> RecursiveDecompositionEstimator::EstimateWithGovernor(
    const Twig& query, CostGovernor* governor) {
  return EstimateWithGovernor(query, governor, nullptr);
}

Result<double> RecursiveDecompositionEstimator::EstimateWithGovernor(
    const Twig& query, CostGovernor* governor, EstimateScratch* scratch) {
  if (query.empty()) {
    return Status::InvalidArgument("Estimate: empty query");
  }
  obs::TraceSpan span("estimator.recursive", "core");
  span.SetArg("query_size", static_cast<uint64_t>(query.size()));
  if (scratch == nullptr) scratch = &ThreadLocalScratch();
  scratch->BeginQuery(query.size());
  int max_depth = 0;
  Result<double> result = EstimateImpl(query, scratch, 0, &max_depth, governor);
  if (result.ok()) {
    EstimatorMetrics::Get().decomposition_depth->Record(
        static_cast<uint64_t>(max_depth));
  }
  return result;
}

Result<double> RecursiveDecompositionEstimator::EstimateImpl(
    const Twig& twig, EstimateScratch* scratch, int depth, int* max_depth,
    CostGovernor* governor) {
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  if (governor != nullptr) {
    // One step per sub-twig visit: the memo probe plus summary lookup (and
    // possibly a split) below.
    if (Status s = governor->Charge(); !s.ok()) return s;
  }
  if (depth > *max_depth) *max_depth = depth;
  const uint64_t hash = twig.CanonicalHash();
  const std::string& code = twig.CanonicalCode();
  if (const double* hit = scratch->memo().Find(hash, code)) {
    metrics.memo_hits->Increment();
    return *hit;
  }

  double value = 0.0;
  if (auto count = summary_->LookupHashed(hash, code)) {
    metrics.summary_hits->Increment();
    value = static_cast<double>(*count);
  } else if (twig.size() <= summary_->complete_through_level()) {
    // The summary is exhaustive at this size: the pattern does not occur.
    metrics.exhaustive_zeros->Increment();
    value = 0.0;
  } else if (twig.size() < 3) {
    // Sizes 1-2 are always retained by construction and pruning; a miss
    // means zero occurrences even in a pruned summary.
    metrics.exhaustive_zeros->Increment();
    value = 0.0;
  } else {
    metrics.summary_misses->Increment();
    // Each leaf pair's split is built just before its vote, in preorder
    // pair order, into this depth's one pooled split: building every
    // split of a wide twig up front costs C(r,2) twigs per level even when
    // only one vote is cast.
    DepthWorkspace& ws = scratch->Depth(depth);
    twig.RemovableNodesInto(&ws.removable);
    const size_t r = ws.removable.size();
    const size_t pairs = r * (r - 1) / 2;
    if (pairs == 0) {
      return Status::Internal("no valid leaf pair for twig of size " +
                              std::to_string(twig.size()));
    }
    size_t limit = 1;
    if (options_.voting) {
      limit = pairs;
      if (options_.max_votes_per_level > 0) {
        limit = std::min(limit,
                         static_cast<size_t>(options_.max_votes_per_level));
      }
    }
    metrics.decompositions->Increment();
    metrics.voting_fanout->Record(limit);
    ws.votes.clear();
    for (size_t a = 0; a < r && ws.votes.size() < limit; ++a) {
      for (size_t b = a + 1; b < r && ws.votes.size() < limit; ++b) {
        // Every pair of removable nodes of a twig of size >= 3 splits; a
        // pair that did not would cast no vote.
        if (!SplitByLeafPairInto(twig, ws.removable[a], ws.removable[b],
                                 &ws.split, &ws.map_scratch)
                 .ok()) {
          continue;
        }
        // The deeper recursion uses workspaces > depth, never this one,
        // so the split twigs stay valid across the three calls.
        double e1, e2, eo;
        TL_ASSIGN_OR_RETURN(e1, EstimateImpl(ws.split.t1, scratch, depth + 1,
                                             max_depth, governor));
        TL_ASSIGN_OR_RETURN(e2, EstimateImpl(ws.split.t2, scratch, depth + 1,
                                             max_depth, governor));
        TL_ASSIGN_OR_RETURN(eo, EstimateImpl(ws.split.overlap, scratch,
                                             depth + 1, max_depth, governor));
        double est = 0.0;
        if (e1 > 0.0 && e2 > 0.0 && eo > 0.0) {
          est = e1 * e2 / eo;
        } else {
          metrics.zero_overlap_fallbacks->Increment();
        }
        // tl-analyze: allow(hot-alloc) -- amortized: pooled vote buffer,
        // capacity retained across queries
        ws.votes.push_back(est);
      }
    }
    if (ws.votes.empty()) {
      value = 0.0;
    } else if (options_.aggregation == VoteAggregation::kMedian &&
               options_.voting) {
      std::sort(ws.votes.begin(), ws.votes.end());
      size_t mid = ws.votes.size() / 2;
      value = (ws.votes.size() % 2 == 1)
                  ? ws.votes[mid]
                  : 0.5 * (ws.votes[mid - 1] + ws.votes[mid]);
    } else {
      double sum = 0.0;
      for (double v : ws.votes) sum += v;
      value = sum / static_cast<double>(ws.votes.size());
    }
  }
  scratch->memo().Insert(hash, code, value);
  return value;
}

}  // namespace treelattice
