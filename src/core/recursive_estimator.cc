#include "core/recursive_estimator.h"

#include <algorithm>
#include <cmath>

#include "core/decomposition_record.h"
#include "core/estimator_metrics.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace treelattice {

namespace {

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

// Visit nests one frame per removed node, up to Twig::kMaxDepth deep, so
// its cold parts live out of line: a query at the cap then fits an 8 MB
// stack even under the address sanitizer.

/// A decomposed sub-twig's value from its votes: their median, or their
/// mean summed in ascending order, so the order the pairs were taken in
/// cannot change it; saturated past the largest double.
[[gnu::noinline]] double Aggregate(std::vector<double>* votes, bool median) {
  std::sort(votes->begin(), votes->end());
  double value = 0.0;
  if (median) {
    const size_t mid = votes->size() / 2;
    value = votes->size() % 2 == 1 ? (*votes)[mid]
                                   : 0.5 * ((*votes)[mid - 1] + (*votes)[mid]);
  } else {
    double sum = 0.0;
    for (double v : *votes) sum += v;
    value = sum / static_cast<double>(votes->size());
  }
  return std::isfinite(value) ? value : SaturatedEstimate();
}

/// Lists in `removable` the degree-1 nodes of the subset whose layout
/// Twig::SubsetCode has just left in `layout`, in the subset's canonical
/// preorder: the top first, then each node's children in code order. The
/// walk needs no stack: it advances each node's kid_begin past the
/// children it has entered, so it consumes the layout.
[[gnu::noinline]] void CanonicalRemovable(const Twig& query,
                                          CodeScratch* layout,
                                          std::vector<int>* removable) {
  CodeScratch& s = *layout;
  auto kids = [&s](int node) {
    return s.kid_end[static_cast<size_t>(node)] -
           s.kid_begin[static_cast<size_t>(node)];
  };
  const int top = s.order.front();
  removable->clear();
  // tl-analyze: allow(hot-alloc) -- refills the nodes the index pass listed
  if (kids(top) == 1) removable->push_back(top);
  int node = top;
  for (;;) {
    uint32_t& next = s.kid_begin[static_cast<size_t>(node)];
    if (next < s.kid_end[static_cast<size_t>(node)]) {
      node = s.kids[next++];
      // tl-analyze: allow(hot-alloc) -- refills the nodes the index pass listed
      if (kids(node) == 0) removable->push_back(node);
    } else if (node == top) {
      return;
    } else {
      node = query.parent(node);
    }
  }
}

[[gnu::noinline]] Status NoLeafPair(int size) {
  return Status::Internal("no valid leaf pair for twig of size " +
                          std::to_string(size));
}

/// Scratch for callers that do not supply one (every rung but the ladder's
/// primary, CLI paths, tests). One per thread: estimation never runs
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

Result<double> RecursiveDecompositionEstimator::Estimate(
    const Twig& query, CostGovernor& governor) {
  return Estimate(query, governor, nullptr, nullptr);
}

Result<double> RecursiveDecompositionEstimator::Estimate(
    const Twig& query, CostGovernor& governor, EstimateScratch* scratch,
    DecompositionRecord* record) {
  if (query.empty()) {
    return Status::InvalidArgument("Estimate: empty query");
  }
  obs::TraceSpan span("estimator.recursive", "core");
  span.SetArg("query_size", static_cast<uint64_t>(query.size()));
  if (scratch == nullptr) {
    // The thread's scratch serves every estimator on the thread, whatever
    // its options, so its code memo lives for one query.
    scratch = &ThreadLocalScratch();
    const size_t size = static_cast<size_t>(query.size());
    scratch->memo().Reset(size * size);
  }
  scratch->BeginQuery(query);
  if (record != nullptr) *record = DecompositionRecord();
  Recursion recursion{query, *scratch, governor, record};
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
  // One step per sub-twig visit: the memo probe plus summary lookup (and
  // possibly a split) below.
  if (Status s = r->governor.Charge(); !s.ok()) return s;
  if (depth > r->max_depth) r->max_depth = depth;
  EstimateScratch& scratch = r->scratch;
  DecompositionRecord* const record = r->record;
  using Source = DecompositionRecord::Source;
  const std::span<const uint64_t> subset(nodes, scratch.words());
  const std::string_view key = NodeSetBytes(subset);
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
    query.SubsetCode(subset, &scratch.code_scratch(), &ws.code);
    code = ws.code;
    hash = HashBytes(code);
  }
  if (const double* hit = scratch.memo().Find(hash, code)) {
    metrics.memo_hits->Increment();
    const double value = *hit;
    scratch.subsets().Insert(key_hash, key, value);
    if (record != nullptr) record->Add(subset, code, Source::kMemo, value);
    return value;
  }

  double value = 0.0;
  if (auto count = summary_->LookupHashed(hash, code)) {
    metrics.summary_hits->Increment();
    value = static_cast<double>(*count);
    if (record != nullptr) record->Add(subset, code, Source::kSummary, value);
  } else if (size <= summary_->complete_through_level() || size < 3) {
    // The summary is exhaustive at this size, and sizes 1-2 are always
    // retained by construction and pruning: the pattern does not occur.
    metrics.exhaustive_zeros->Increment();
    if (record != nullptr) record->Add(subset, code, Source::kZero, value);
  } else {
    metrics.summary_misses->Increment();
    // The subset's degree-1 nodes, in index order: its leaves, and its top
    // (parent outside) when that has one child.
    ws.removable.clear();
    for (int node = 0; node < query.size(); ++node) {
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
    if (pairs == 0) return NoLeafPair(size);
    size_t limit = 1;
    if (options_.voting) {
      limit = pairs;
      if (options_.max_votes_per_level > 0) {
        limit = std::min(limit,
                         static_cast<size_t>(options_.max_votes_per_level));
      }
    }
    if (limit < pairs) {
      // Fewer pairs than all: the first ones in the subset's canonical
      // preorder, so every spelling of a shape takes the same pairs (ties
      // are same-coded siblings, which give same-coded splits). The whole
      // query's code came from its cache, so its layout is built here.
      if (size == query.size()) {
        query.SubsetCode(subset, &scratch.code_scratch(), &ws.code);
      }
      CanonicalRemovable(query, &scratch.code_scratch(), &ws.removable);
    }
    metrics.decompositions->Increment();
    metrics.voting_fanout->Record(limit);
    const uint32_t entry =
        record == nullptr
            ? 0
            : record->Add(subset, code, Source::kDecomposition, 0.0);
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
        // One Result for the three visits keeps the frame small.
        Result<double> part = Visit(r, t1, size - 1, depth + 1);
        if (!part.ok()) return part;
        const double e1 = *part;
        part = Visit(r, t2, size - 1, depth + 1);
        if (!part.ok()) return part;
        const double e2 = *part;
        part = Visit(r, overlap, size - 2, depth + 1);
        if (!part.ok()) return part;
        const double eo = *part;
        double est = 0.0;
        if (e1 > 0.0 && e2 > 0.0 && eo > 0.0) {
          // Past about 1e154 the product overflows before the division
          // would bring it back; dividing first keeps such a vote finite,
          // and the same whichever half of the pair came first.
          const double product = e1 * e2;
          est = std::isfinite(product)
                    ? product / eo
                    : std::max(e1, e2) * (std::min(e1, e2) / eo);
          if (!std::isfinite(est)) est = SaturatedEstimate();
        } else {
          metrics.zero_overlap_fallbacks->Increment();
        }
        // tl-analyze: allow(hot-alloc) -- amortized per-depth vote buffer
        ws.votes.push_back(est);
        if (record != nullptr) {
          record->AddVote(entry, {t1, words}, {t2, words}, {overlap, words},
                          est);
        }
      }
    }
    value = Aggregate(&ws.votes, options_.voting &&
                                     options_.aggregation ==
                                         VoteAggregation::kMedian);
    if (record != nullptr) record->entries[entry].value = value;
  }
  scratch.memo().Insert(hash, code, value);
  scratch.subsets().Insert(key_hash, key, value);
  return value;
}

}  // namespace treelattice
