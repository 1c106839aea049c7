#include "core/recursive_estimator.h"

#include <algorithm>

#include "core/estimator_metrics.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace treelattice {

namespace {

/// A node subset of `words` words as a subset-memo key.
std::string_view SubsetKey(const uint64_t* nodes, size_t words) {
  return std::string_view(reinterpret_cast<const char*>(nodes),
                          words * sizeof(uint64_t));
}

uint64_t SubsetHash(const uint64_t* nodes, size_t words) {
  uint64_t hash = Mix64(nodes[0]);
  for (size_t w = 1; w < words; ++w) hash = HashCombine(hash, nodes[w]);
  return hash;
}

/// How many of `node`'s children are in `nodes`, counting up to two.
int ChildrenInSubset(const Twig& query, const uint64_t* nodes, int node) {
  int count = 0;
  for (int child : query.children(node)) {
    if (NodeSetHas(nodes, child) && ++count == 2) break;
  }
  return count;
}

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
  scratch->BeginQuery(query);
  Recursion recursion{query, scratch, governor};
  Result<double> result =
      Visit(&recursion, scratch->all_nodes(), query.size(), 0);
  if (result.ok()) {
    EstimatorMetrics::Get().decomposition_depth->Record(
        static_cast<uint64_t>(recursion.max_depth));
  }
  return result;
}

Result<double> RecursiveDecompositionEstimator::Visit(Recursion* r,
                                                      const uint64_t* nodes,
                                                      int size, int depth) {
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  if (r->governor != nullptr) {
    // One step per sub-twig visit: the memo probe plus summary lookup (and
    // possibly a split) below.
    if (Status s = r->governor->Charge(); !s.ok()) return s;
  }
  if (depth > r->max_depth) r->max_depth = depth;
  EstimateScratch& scratch = *r->scratch;
  const std::string_view key = SubsetKey(nodes, scratch.words());
  const uint64_t key_hash = SubsetHash(nodes, scratch.words());
  if (const double* hit = scratch.subsets().Find(key_hash, key)) {
    metrics.memo_hits->Increment();
    return *hit;
  }

  // A subset seen for the first time: its canonical code finds the value
  // of a same-shaped sub-twig, or probes the summary. The whole query's
  // code is already cached on its twig.
  DepthWorkspace& ws = scratch.Depth(depth);
  const Twig& query = r->query;
  std::string_view code;
  uint64_t hash = 0;
  if (size == query.size()) {
    code = query.CanonicalCode();
    hash = query.CanonicalHash();
  } else {
    query.SubsetCode(std::span<const uint64_t>(nodes, scratch.words()),
                     &scratch.code_scratch(), &ws.code);
    code = ws.code;
    hash = HashBytes(code);
  }
  if (const double* hit = scratch.memo().Find(hash, code)) {
    metrics.memo_hits->Increment();
    const double value = *hit;
    scratch.subsets().Insert(key_hash, key, value);
    return value;
  }

  double value = 0.0;
  if (auto count = summary_->LookupHashed(hash, code)) {
    metrics.summary_hits->Increment();
    value = static_cast<double>(*count);
  } else if (size <= summary_->complete_through_level()) {
    // The summary is exhaustive at this size: the pattern does not occur.
    metrics.exhaustive_zeros->Increment();
    value = 0.0;
  } else if (size < 3) {
    // Sizes 1-2 are always retained by construction and pruning; a miss
    // means zero occurrences even in a pruned summary.
    metrics.exhaustive_zeros->Increment();
    value = 0.0;
  } else {
    metrics.summary_misses->Increment();
    // Degree-1 nodes in the order the leaf pairs are taken: the query's
    // own index order at the top level, preorder below it, as in a
    // recursion over split twigs numbered in preorder; the oracle test
    // holds the two to the same bits. A node is degree-1 if it is a leaf
    // of the subset, or its top (parent outside) with one child.
    ws.removable.clear();
    for (size_t i = 0; i < static_cast<size_t>(query.size()); ++i) {
      const int node = depth == 0 ? static_cast<int>(i) : scratch.preorder()[i];
      if (!NodeSetHas(nodes, node)) continue;
      const int parent = query.parent(node);
      const bool top = parent == -1 || !NodeSetHas(nodes, parent);
      if (ChildrenInSubset(query, nodes, node) == (top ? 1 : 0)) {
        // tl-analyze: allow(hot-alloc) -- amortized per-depth buffer
        ws.removable.push_back(node);
      }
    }
    const size_t removable = ws.removable.size();
    const size_t pairs = removable * (removable - 1) / 2;
    if (pairs == 0) {
      return Status::Internal("no valid leaf pair for twig of size " +
                              std::to_string(size));
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
    // Each vote's T1 = T \ v, T2 = T \ u and overlap T \ {u, v} are bit
    // clears of this subset into this depth's buffer; deeper levels use
    // workspaces > depth, never this one.
    const size_t words = scratch.words();
    // tl-analyze: allow(hot-alloc) -- amortized per-depth buffer
    ws.splits.resize(3 * words);
    uint64_t* t1 = ws.splits.data();
    uint64_t* t2 = t1 + words;
    uint64_t* overlap = t2 + words;
    ws.votes.clear();
    for (size_t a = 0; a < removable && ws.votes.size() < limit; ++a) {
      for (size_t b = a + 1; b < removable && ws.votes.size() < limit; ++b) {
        const int u = ws.removable[a];
        const int v = ws.removable[b];
        std::copy_n(nodes, words, t1);
        std::copy_n(nodes, words, t2);
        NodeSetRemove(t1, v);
        NodeSetRemove(t2, u);
        std::copy_n(t1, words, overlap);
        NodeSetRemove(overlap, u);
        double e1 = 0.0, e2 = 0.0, eo = 0.0;
        TL_ASSIGN_OR_RETURN(e1, Visit(r, t1, size - 1, depth + 1));
        TL_ASSIGN_OR_RETURN(e2, Visit(r, t2, size - 1, depth + 1));
        TL_ASSIGN_OR_RETURN(eo, Visit(r, overlap, size - 2, depth + 1));
        double est = 0.0;
        if (e1 > 0.0 && e2 > 0.0 && eo > 0.0) {
          est = e1 * e2 / eo;
        } else {
          metrics.zero_overlap_fallbacks->Increment();
        }
        // tl-analyze: allow(hot-alloc) -- amortized per-depth vote buffer
        ws.votes.push_back(est);
      }
    }
    if (options_.aggregation == VoteAggregation::kMedian &&
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
  scratch.memo().Insert(hash, code, value);
  scratch.subsets().Insert(key_hash, key, value);
  return value;
}

}  // namespace treelattice
