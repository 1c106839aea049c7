#include "core/batch_estimator.h"

#include "util/hash.h"

namespace treelattice {

namespace {

/// Round `want` up to a power of two >= 16.
size_t SlotCount(size_t want) {
  size_t n = 16;
  while (n * 7 < want * 10) n <<= 1;
  return n;
}

}  // namespace

void QueryDedup::Group(std::span<const Twig> queries) {
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

BatchEstimator::BatchEstimator(const LatticeSummary* summary)
    : BatchEstimator(summary, RecursiveDecompositionEstimator::Options()) {}

BatchEstimator::BatchEstimator(const LatticeSummary* summary,
                               RecursiveDecompositionEstimator::Options options)
    : estimator_(summary, options) {}

Status* BatchEstimator::StageStatuses(size_t n) {
  status_staging_.assign(n, Status::OK());
  return status_staging_.data();
}

Status BatchEstimator::EstimateBatch(std::span<const Twig> queries,
                                     const EstimateOptions& options,
                                     std::span<EstimateResult> results) {
  if (results.size() != queries.size()) {
    return Status::InvalidArgument(
        "EstimateBatch: results span must match queries span");
  }
  const size_t n = queries.size();
  if (n == 0) return Status::OK();
  arena_.Reset();

  // Stage 1: group identical queries; only the first of each group is
  // estimated.
  dedup_.Group(queries);
  const std::span<const uint32_t> distinct = dedup_.distinct();
  size_t memo_budget = 0;  // sum of size^2 over distinct queries
  for (uint32_t first : distinct) {
    const size_t size = static_cast<size_t>(queries[first].size());
    memo_budget += size * size;
  }

  EstimateScratch* scratch =
      options.scratch != nullptr ? options.scratch : &scratch_;
  ScopedBatchScratch batch_guard(scratch, memo_budget);

  // Stage 2: shared-memo recursion over the distinct queries. One governor
  // covers the whole batch; queries visited after a budget trip fail fast
  // with the trip status on their first Charge().
  CostGovernor governor = options.MakeGovernor();
  CostGovernor* governor_ptr = options.governed() ? &governor : nullptr;
  double* staged = arena_.AllocateArray<double>(distinct.size());
  Status* staged_status = StageStatuses(distinct.size());
  for (size_t d = 0; d < distinct.size(); ++d) {
    staged[d] = 0.0;
    Result<double> result = estimator_.EstimateWithGovernor(
        queries[distinct[d]], governor_ptr, scratch);
    if (result.ok()) {
      staged[d] = *result;
    } else {
      staged_status[d] = result.status();
    }
  }
  if (options.work_steps != nullptr && governor_ptr != nullptr) {
    *options.work_steps += governor.steps();
  }

  // Scatter: every query takes its group's staged outcome.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t d = dedup_.group(i);
    if (d == QueryDedup::kNoGroup) {
      results[i].status = Status::InvalidArgument("Estimate: empty query");
      results[i].estimate = 0.0;
      continue;
    }
    results[i].status = staged_status[d];
    results[i].estimate = staged[d];
  }
  return Status::OK();
}

}  // namespace treelattice
