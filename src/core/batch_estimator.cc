#include "core/batch_estimator.h"

#include <optional>

#include "util/hash.h"
#include "util/timer.h"

namespace treelattice {

namespace {

/// Round `want` up to a power of two >= 16.
size_t SlotCount(size_t want) {
  size_t n = 16;
  while (n * 7 < want * 10) n <<= 1;
  return n;
}

}  // namespace

BatchEstimator::BatchEstimator(const LatticeSummary* summary,
                               RecursiveDecompositionEstimator::Options primary,
                               EstimateCache* cache, int64_t cache_version)
    : ladder_(summary, DegradingEstimator::Options{primary}),
      cache_(cache),
      cache_version_(cache_version) {}

void BatchEstimator::Group(std::span<const Twig> queries) {
  const size_t n = queries.size();
  group_.assign(n, kNoGroup);
  distinct_.clear();
  if (n == 1) {
    // A lone query is its own group: no table to build.
    if (!queries[0].empty()) {
      group_[0] = 0;
      distinct_.push_back(0);
    }
    return;
  }
  slots_.assign(SlotCount(n), Slot{});
  const size_t slot_mask = slots_.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    if (queries[i].empty()) continue;
    // The batch-wide one-time canonicalization pass: everything after
    // runs on the cached code/hash.
    const uint64_t hash = queries[i].CanonicalHash();  // tl-lint: allow(canonical-in-loop)
    const std::string& code = queries[i].CanonicalCode();  // tl-lint: allow(canonical-in-loop)
    size_t idx = static_cast<size_t>(Mix64(hash)) & slot_mask;
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.group == kNoGroup) {
        slot = Slot{hash, static_cast<uint32_t>(distinct_.size())};
        group_[i] = slot.group;
        distinct_.push_back(static_cast<uint32_t>(i));
        break;
      }
      if (slot.hash == hash &&
          queries[distinct_[slot.group]].CanonicalCode() == code) {  // tl-lint: allow(canonical-in-loop)
        group_[i] = slot.group;
        break;
      }
      idx = (idx + 1) & slot_mask;
    }
  }
}

Status BatchEstimator::EstimateBatch(std::span<const Twig> queries,
                                     const EstimateOptions& options,
                                     std::span<EstimateResult> results) {
  return EstimateBatch(queries, std::span<const EstimateOptions>(&options, 1),
                       results);
}

Status BatchEstimator::EstimateBatch(std::span<const Twig> queries,
                                     std::span<const EstimateOptions> options,
                                     std::span<EstimateResult> results) {
  const size_t n = queries.size();
  if (results.size() != n) {
    return Status::InvalidArgument(
        "EstimateBatch: results span must match queries span");
  }
  if (options.size() != 1 && options.size() != n) {
    return Status::InvalidArgument(
        "EstimateBatch: options span must hold one entry or one per query");
  }
  if (n == 0) return Status::OK();

  // Laps charge every stretch of the batch to exactly one query.
  WallTimer timer;

  // Stage 1: group identical queries; only the first of each group goes on.
  Group(queries);

  // Stage 2: one cache read per distinct query. Any query may be answered
  // from the cache, since entries are primary answers, which do not
  // depend on the budget they ran under.
  size_t misses = 0;
  size_t memo_budget = 0;  // sum of size^2 over the misses
  for (uint32_t first : distinct_) {
    const Twig& query = queries[first];
    EstimateResult& result = results[first];
    result = EstimateResult{.status = Status::OK(),
                            .wall_micros = result.wall_micros};
    if (cache_ != nullptr) {
      std::optional<double> hit = cache_->Get(
          cache_version_, query.CanonicalHash(),  // tl-lint: allow(canonical-in-loop)
          query.CanonicalCode());  // tl-lint: allow(canonical-in-loop)
      result.wall_micros += timer.LapMicros();
      if (hit.has_value()) {
        result.estimate = *hit;
        result.cached = true;
        continue;
      }
    }
    ++misses;
    const size_t size = static_cast<size_t>(query.size());
    memo_budget += size * size;
  }

  // Stage 3: the misses through the ladder, each under governors the
  // ladder builds from its own options. The primary rung runs over the one
  // code memo, reset once for the call; the floor uses a fresh per-call
  // memo of its own (DESIGN.md §14).
  if (misses > 0) {
    scratch_.memo().Reset(memo_budget);
    for (uint32_t first : distinct_) {
      const Twig& query = queries[first];
      EstimateResult& result = results[first];
      if (result.cached) continue;
      const EstimateOptions& item = options[options.size() == 1 ? 0 : first];
      Result<DegradingEstimator::DegradedEstimate> estimate =
          ladder_.EstimateDegraded(query, item, &scratch_);
      if (!estimate.ok()) {
        result.status = estimate.status();
      } else {
        result.estimate = estimate->estimate;
        result.rung = estimate->rung;
        result.degraded = estimate->degraded;
        result.work_steps = estimate->work_steps;
        // Stage 4: insert every primary answer. The primary either
        // completes or returns its budget error, so an answer it gave under
        // a deadline or step cap is the one an unlimited call gives; a
        // floor answer is another estimator's.
        if (cache_ != nullptr &&
            estimate->rung == DegradingEstimator::Rung::kPrimary) {
          cache_->Put(cache_version_,
                      query.CanonicalHash(),  // tl-lint: allow(canonical-in-loop)
                      query.CanonicalCode(),  // tl-lint: allow(canonical-in-loop)
                      estimate->estimate);
        }
      }
      result.wall_micros += timer.LapMicros();
    }
  }

  // Scatter: every other query takes its group's outcome.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t group = group_[i];
    if (group == kNoGroup) {
      results[i] = EstimateResult{
          .status = Status::InvalidArgument("Estimate: empty query"),
          .wall_micros = results[i].wall_micros};
      continue;
    }
    const uint32_t first = distinct_[group];
    if (first == i) continue;
    results[i] = results[first];
    results[i].duplicate = true;
  }
  return Status::OK();
}

}  // namespace treelattice
