#include "core/estimate_scratch.h"

#include <algorithm>

#include "util/hash.h"

namespace treelattice {

namespace {
constexpr size_t kMinSlots = 16;
/// Largest up-front reservation: a bigger recursion grows the table as it
/// inserts, so one huge query never makes later small ones pay for it.
constexpr size_t kMaxReservedEntries = 4096;
}  // namespace

void CodeMemo::Reset(size_t expected_entries) {
  entries_.clear();
  arena_.clear();
  // Size the table so `expected_entries` stays under the 0.7 load bound.
  // Only that prefix of the retained slot buffer is cleared and probed.
  const size_t entries = std::min(expected_entries, kMaxReservedEntries);
  size_t want = kMinSlots;
  while (want * 7 < entries * 10) want <<= 1;
  UseSlots(want);
}

void CodeMemo::UseSlots(size_t n) {
  if (slots_.size() < n) slots_.resize(n);
  std::fill_n(slots_.begin(), n, Slot{});
  mask_ = n - 1;
}

const double* CodeMemo::Find(uint64_t hash, std::string_view code) const {
  if (slots_.empty()) return nullptr;
  size_t idx = static_cast<size_t>(Mix64(hash)) & mask_;
  for (;;) {
    const Slot& slot = slots_[idx];
    if (slot.index_plus_one == 0) return nullptr;
    if (slot.hash == hash) {
      const Entry& entry = entries_[slot.index_plus_one - 1];
      if (CodeOf(entry) == code) return &entry.value;
    }
    idx = (idx + 1) & mask_;
  }
}

void CodeMemo::Insert(uint64_t hash, std::string_view code, double value) {
  if (slots_.empty()) Reset(0);
  if ((entries_.size() + 1) * 10 >= slots_in_use() * 7) Grow();
  size_t idx = static_cast<size_t>(Mix64(hash)) & mask_;
  while (slots_[idx].index_plus_one != 0) {
    if (slots_[idx].hash == hash &&
        CodeOf(entries_[slots_[idx].index_plus_one - 1]) == code) {
      return;  // already memoized; keep the first value (emplace semantics)
    }
    idx = (idx + 1) & mask_;
  }
  Entry entry;
  entry.hash = hash;
  entry.offset = arena_.size();
  entry.length = code.size();
  entry.value = value;
  arena_.append(code);
  entries_.push_back(entry);
  slots_[idx] = Slot{hash, static_cast<uint32_t>(entries_.size())};
}

void CodeMemo::Grow() {
  UseSlots(slots_in_use() * 2);
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t idx = static_cast<size_t>(Mix64(entries_[i].hash)) & mask_;
    while (slots_[idx].index_plus_one != 0) idx = (idx + 1) & mask_;
    slots_[idx] = Slot{entries_[i].hash, static_cast<uint32_t>(i + 1)};
  }
}

void EstimateScratch::BeginQuery(const Twig& query) {
  const size_t n = static_cast<size_t>(query.size());
  words_ = NodeSetWords(query.size());
  all_nodes_.assign(words_, ~uint64_t{0});
  if (n % 64 != 0) all_nodes_.back() = (uint64_t{1} << (n % 64)) - 1;
  // The voting recursion visits O(size^2) distinct sub-twigs in practice
  // (each level removes one node; each level contributes one memo entry per
  // distinct split piece), so a quadratic reservation avoids regrowth.
  subsets_.Reset(n < 1 ? 1 : n * n);
}

DepthWorkspace& EstimateScratch::Depth(int depth) {
  while (depths_.size() <= static_cast<size_t>(depth)) depths_.emplace_back();
  return depths_[static_cast<size_t>(depth)];
}

}  // namespace treelattice
