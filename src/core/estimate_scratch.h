#ifndef TREELATTICE_CORE_ESTIMATE_SCRATCH_H_
#define TREELATTICE_CORE_ESTIMATE_SCRATCH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "twig/decompose.h"
#include "util/analysis_annotations.h"

namespace treelattice {

/// Flat open-addressing memo from (canonical-code hash, code) to a memoized
/// estimate. Codes are copied into one contiguous arena so the memo owns no
/// per-entry strings; the full code is always verified on a hash hit, so a
/// 64-bit collision can never silently return the wrong sub-twig's estimate
/// (the "bit-for-bit unchanged" contract of the hot-path rewrite).
///
/// The memo never erases; Reset() drops all entries while keeping every
/// buffer's capacity, so a warm memo allocates nothing across queries.
/// The slot table in use is sized per Reset, so the cost of a query's
/// Reset and probes does not depend on the largest query seen before.
class CodeMemo {
 public:
  /// Empties the memo and sizes the slot table for `expected_entries`,
  /// capped at a few thousand; larger recursions grow it as they insert.
  void Reset(size_t expected_entries);

  /// Pointer to the memoized value for (hash, code), or nullptr. The
  /// pointer is invalidated by the next Insert.
  TL_HOT const double* Find(uint64_t hash, std::string_view code) const;

  /// Memoizes (hash, code) -> value. Keeps the existing value if the key
  /// is already present (emplace semantics). `hash` must equal
  /// HashBytes(code).
  // Amortized growth only: a warm memo appends into retained arena/slot
  // capacity and re-enters the allocator just while the tables are still
  // growing toward their steady-state size.
  TL_ALLOC_OK void Insert(uint64_t hash, std::string_view code, double value);

  size_t size() const { return entries_.size(); }

  /// Slots of the table in use (a prefix of the retained slot buffer).
  size_t slots_in_use() const { return slots_.empty() ? 0 : mask_ + 1; }

 private:
  struct Entry {
    uint64_t hash = 0;
    size_t offset = 0;  ///< into arena_
    size_t length = 0;
    double value = 0.0;
  };
  /// Slot of the probe table; index_plus_one == 0 marks an empty slot.
  struct Slot {
    uint64_t hash = 0;
    uint32_t index_plus_one = 0;
  };

  std::string_view CodeOf(const Entry& entry) const {
    return std::string_view(arena_).substr(entry.offset, entry.length);
  }

  /// Makes the first `n` (a power of two) retained slots the empty table
  /// in use, growing the buffer only past its high-water size.
  void UseSlots(size_t n);

  /// Doubles the slot table and reinserts all entries (no code compares
  /// needed: stored entries are distinct by construction).
  void Grow();

  std::vector<Entry> entries_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::string arena_;
};

/// Reusable buffers for one recursion level of the voting decomposition:
/// the removable-node list, the split of the vote in progress, and the
/// vote accumulator. The split's twigs are Clear()ed and refilled in place
/// for every vote, so a warm workspace performs a whole level without
/// touching the allocator.
struct DepthWorkspace {
  std::vector<int> removable;
  RecursiveSplit split;
  std::vector<double> votes;
  std::vector<int> map_scratch;
};

/// Per-thread reusable state for one estimation call chain: the sub-twig
/// memo plus one workspace per recursion depth. Thread through
/// EstimateOptions::scratch to reuse across requests (a serve worker keeps
/// one for its lifetime); estimators fall back to an internal thread_local
/// instance when none is supplied, so ungoverned callers stay
/// allocation-free too. Not thread-safe: one scratch per thread.
///
/// Batch mode (DESIGN.md §14): BeginBatch() resets the memo once for a
/// whole batch of queries and makes subsequent BeginQuery() calls keep it,
/// so distinct queries share every sub-twig estimate. This is sound because
/// memo entries are inserted only after a sub-twig's estimate is fully
/// computed — each entry equals the deterministic pure-function value of
/// its code for the fixed (summary, options), independent of which query
/// put it there — so batch results stay bit-identical to sequential runs.
class EstimateScratch {
 public:
  /// Resets the memo for a fresh query of `query_size` nodes. Depth
  /// workspaces need no reset — each level overwrites its own prefix.
  /// In batch mode the memo is retained instead (see BeginBatch).
  // Amortized: Reset keeps every buffer's capacity (see CodeMemo).
  TL_ALLOC_OK void BeginQuery(int query_size);

  /// Enters batch mode: resets the memo once, sized for
  /// `expected_entries`, and suppresses per-query memo resets until
  /// EndBatch(). Calls do not nest.
  // Amortized: one Reset per batch into retained capacity.
  TL_ALLOC_OK void BeginBatch(size_t expected_entries);

  /// Leaves batch mode; the next BeginQuery resets the memo again.
  void EndBatch() { in_batch_ = false; }

  bool in_batch() const { return in_batch_; }

  CodeMemo& memo() { return memo_; }

  /// Workspace for recursion depth `depth`, created on first use. A deque
  /// keeps references stable while deeper levels extend it mid-recursion.
  // Amortized: workspaces are created once per depth and then reused.
  TL_ALLOC_OK DepthWorkspace& Depth(int depth);

 private:
  CodeMemo memo_;
  std::deque<DepthWorkspace> depths_;
  bool in_batch_ = false;
};

/// RAII batch-mode guard: BeginBatch on construction, EndBatch on every
/// exit path (including budget-trip early returns).
class ScopedBatchScratch {
 public:
  ScopedBatchScratch(EstimateScratch* scratch, size_t expected_entries)
      : scratch_(scratch) {
    scratch_->BeginBatch(expected_entries);
  }
  ~ScopedBatchScratch() { scratch_->EndBatch(); }
  ScopedBatchScratch(const ScopedBatchScratch&) = delete;
  ScopedBatchScratch& operator=(const ScopedBatchScratch&) = delete;

 private:
  EstimateScratch* scratch_;
};

}  // namespace treelattice

#endif  // TREELATTICE_CORE_ESTIMATE_SCRATCH_H_
