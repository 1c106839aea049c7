#include "summary/lattice_summary.h"

#include <cstddef>
#include <fstream>
#include <sstream>

#include "util/hash.h"

namespace treelattice {

namespace {
// Per-entry bookkeeping overhead charged by MemoryBytes().
constexpr size_t kEntryOverhead = sizeof(uint64_t);
// Initial slot-table size (power of two) and load-factor bound: the table
// grows once its entries exceed 7/10 of capacity, keeping linear-probe
// chains short.
constexpr size_t kInitialSlots = 16;
}  // namespace

LatticeSummary::LatticeSummary(int max_level)
    : max_level_(max_level < 2 ? 2 : max_level),
      complete_through_level_(0),
      level_codes_(static_cast<size_t>(max_level_) + 1) {}

size_t LatticeSummary::ProbeSlot(uint64_t hash, std::string_view code) const {
  // Linear probe from the mixed hash. Mix64 spreads FNV-1a's weak low bits
  // before masking; the full 64-bit hash stored per slot rejects nearly all
  // mismatches without touching the entry's string.
  size_t idx = static_cast<size_t>(Mix64(hash)) & slot_mask_;
  for (;;) {
    const Slot& slot = slots_[idx];
    if (slot.entry == kSlotEmpty ||
        (slot.hash == hash && entries_[slot.entry].code == code)) {
      return idx;
    }
    idx = (idx + 1) & slot_mask_;
  }
}

void LatticeSummary::Rehash(size_t new_slot_count) {
  slots_.assign(new_slot_count, Slot{});
  slot_mask_ = new_slot_count - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t hash = entries_[i].hash;
    size_t idx = static_cast<size_t>(Mix64(hash)) & slot_mask_;
    while (slots_[idx].entry != kSlotEmpty) idx = (idx + 1) & slot_mask_;
    slots_[idx] = Slot{hash, static_cast<uint32_t>(i)};
  }
}

Status LatticeSummary::Insert(const Twig& twig, uint64_t count) {
  if (twig.empty() || twig.size() > max_level_) {
    return Status::InvalidArgument("Insert: pattern size out of range");
  }
  if (count == 0) {
    return Status::InvalidArgument("Insert: zero-count patterns not stored");
  }
  const std::string& code = twig.CanonicalCode();
  const uint64_t hash = twig.CanonicalHash();
  if (slots_.empty()) Rehash(kInitialSlots);
  size_t idx = ProbeSlot(hash, code);
  if (slots_[idx].entry != kSlotEmpty) {
    entries_[slots_[idx].entry].count = count;  // overwrite existing
    return Status::OK();
  }
  slots_[idx] = Slot{hash, static_cast<uint32_t>(entries_.size())};
  entries_.push_back(Entry{code, hash, count});
  level_codes_[static_cast<size_t>(twig.size())].push_back(code);
  memory_bytes_ += code.size() + sizeof(uint64_t) + kEntryOverhead;
  if (entries_.size() * 10 >= slots_.size() * 7) Rehash(slots_.size() * 2);
  return Status::OK();
}

std::optional<uint64_t> LatticeSummary::LookupCode(
    std::string_view code) const {
  return LookupHashed(HashBytes(code), code);
}

std::optional<uint64_t> LatticeSummary::LookupHashed(
    uint64_t hash, std::string_view code) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[ProbeSlot(hash, code)];
  if (slot.entry == kSlotEmpty) return std::nullopt;
  return entries_[slot.entry].count;
}

const std::vector<std::string>& LatticeSummary::PatternsAtLevel(
    int level) const {
  static const std::vector<std::string> kEmpty;
  if (level < 1 || level > max_level_) return kEmpty;
  return level_codes_[static_cast<size_t>(level)];
}

size_t LatticeSummary::NumPatterns(int level) const {
  if (level == 0) return entries_.size();
  return PatternsAtLevel(level).size();
}

Status LatticeSummary::SaveToFileV1(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "TLSUMMARY v1\n"
      << max_level_ << ' ' << complete_through_level_ << '\n'
      << entries_.size() << '\n';
  for (int level = 1; level <= max_level_; ++level) {
    for (const std::string& code : level_codes_[static_cast<size_t>(level)]) {
      out << *LookupCode(code) << ' ' << code << '\n';
    }
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

// SaveToFile and LoadFromFile live in summary_format.cc (they are thin
// wrappers over the v2 container writer/loader).

Result<LatticeSummary> LatticeSummary::FromV1Text(std::string_view contents,
                                                  const std::string& origin) {
  std::istringstream in{std::string(contents)};
  std::string magic;
  std::getline(in, magic);
  if (magic != "TLSUMMARY v1") {
    return Status::Corruption("bad summary header in " + origin);
  }
  int max_level = 0;
  int complete = 0;
  uint64_t n = 0;
  in >> max_level >> complete >> n;
  if (!in || max_level < 2 || max_level > kMaxLevelCap) {
    return Status::Corruption("bad summary metadata in " + origin);
  }
  if (complete < 0 || complete > max_level) {
    return Status::Corruption("completeness level out of range in " + origin);
  }
  // Every entry needs at least four bytes ("1 0\n"), so a count beyond the
  // buffer size is a corrupt header, not a huge summary — reject before
  // looping.
  if (n > contents.size()) {
    return Status::Corruption("pattern count exceeds file size in " + origin);
  }
  LatticeSummary summary(max_level);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t count = 0;
    std::string code;
    in >> count >> code;
    if (!in) return Status::Corruption("truncated summary in " + origin);
    Result<Twig> twig = Twig::FromCanonicalCode(code);
    if (!twig.ok()) {
      return Status::Corruption("bad canonical code in " + origin + ": " +
                                twig.status().message());
    }
    Status inserted = summary.Insert(*twig, count);
    if (!inserted.ok()) {
      return Status::Corruption("bad pattern entry in " + origin + ": " +
                                inserted.message());
    }
  }
  std::string rest;
  if (in >> rest) {
    return Status::Corruption("trailing garbage after " + std::to_string(n) +
                              " declared patterns in " + origin);
  }
  summary.set_complete_through_level(complete);
  return summary;
}

}  // namespace treelattice
