#ifndef TREELATTICE_CORE_ESTIMATE_SCRATCH_H_
#define TREELATTICE_CORE_ESTIMATE_SCRATCH_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "twig/twig.h"
#include "util/analysis_annotations.h"

namespace treelattice {

/// Flat open-addressing memo from a byte-string key and its 64-bit hash to
/// a memoized estimate. The estimator keys one by canonical code and one by
/// the words of a node subset. Keys are copied into one contiguous arena so
/// the memo owns no per-entry strings; the full key is always verified on a
/// hash hit, so a 64-bit collision can never silently return the wrong
/// sub-twig's estimate (the "bit-for-bit unchanged" contract of the
/// hot-path rewrite).
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
  /// is already present (emplace semantics). `hash` must be one function of
  /// the key across a memo's calls (HashBytes for canonical codes).
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
/// the canonical code of the sub-twig being visited, its removable nodes,
/// the node subsets of the vote in progress, and the vote accumulator. A
/// warm workspace performs a whole level without touching the allocator.
struct DepthWorkspace {
  std::string code;
  std::vector<int> removable;
  /// T1, T2 and the overlap of the vote in progress, one subset each.
  std::vector<uint64_t> splits;
  std::vector<double> votes;
};

/// Per-thread reusable state for one estimation call chain: the two memos
/// plus one workspace per recursion depth. Thread through
/// EstimateOptions::scratch to reuse across requests (a serve worker keeps
/// one for its lifetime); estimators fall back to an internal thread_local
/// instance when none is supplied, so ungoverned callers stay
/// allocation-free too. Not thread-safe: one scratch per thread.
///
/// The recursion visits node subsets of the query (DESIGN.md §10). The
/// subset memo, keyed by a subset's words, answers a repeated subset and
/// lives for one query; on a subset miss the subset's canonical code
/// probes the code memo, so same-shaped sub-twigs share one value, exactly
/// as they did when every visit built its twig.
///
/// Batch mode (DESIGN.md §14): BeginBatch() resets the code memo once for
/// a whole batch of queries and makes subsequent BeginQuery() calls keep
/// it, so distinct queries share every sub-twig estimate. This is sound
/// because memo entries are inserted only after a sub-twig's estimate is
/// fully computed — each entry equals the deterministic pure-function
/// value of its code for the fixed (summary, options), independent of
/// which query put it there — so batch results stay bit-identical to
/// sequential runs. The subset memo is reset for every query in either
/// mode: its keys name nodes of one query.
class EstimateScratch {
 public:
  /// Starts `query`: resets the subset memo, lays out the query's node
  /// set and preorder, and resets the code memo unless in batch mode.
  /// Depth workspaces need no reset — each level overwrites its own.
  // Amortized: every buffer keeps its capacity across queries.
  TL_ALLOC_OK void BeginQuery(const Twig& query);

  /// Enters batch mode: resets the code memo once, sized for
  /// `expected_entries`, and suppresses per-query code memo resets until
  /// EndBatch(). Calls do not nest.
  // Amortized: one Reset per batch into retained capacity.
  TL_ALLOC_OK void BeginBatch(size_t expected_entries);

  /// Leaves batch mode; the next BeginQuery resets the code memo again.
  void EndBatch() { in_batch_ = false; }

  bool in_batch() const { return in_batch_; }

  CodeMemo& memo() { return memo_; }
  CodeMemo& subsets() { return subsets_; }

  /// Words per node subset of the current query: ceil(size / 64).
  size_t words() const { return words_; }
  /// The current query's whole node set.
  const uint64_t* all_nodes() const { return all_nodes_.data(); }
  /// The current query's nodes in preorder (children in stored order).
  std::span<const int> preorder() const { return preorder_; }
  CodeScratch& code_scratch() { return code_scratch_; }

  /// Workspace for recursion depth `depth`, created on first use. A deque
  /// keeps references stable while deeper levels extend it mid-recursion.
  // Amortized: workspaces are created once per depth and then reused.
  TL_ALLOC_OK DepthWorkspace& Depth(int depth);

 private:
  CodeMemo memo_;
  CodeMemo subsets_;
  size_t words_ = 1;
  std::vector<uint64_t> all_nodes_;
  std::vector<int> preorder_;
  std::vector<int> stack_;
  CodeScratch code_scratch_;
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
