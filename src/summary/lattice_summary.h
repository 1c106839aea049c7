#ifndef TREELATTICE_SUMMARY_LATTICE_SUMMARY_H_
#define TREELATTICE_SUMMARY_LATTICE_SUMMARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "twig/twig.h"
#include "util/analysis_annotations.h"
#include "util/result.h"

namespace treelattice {

/// The lattice summary: occurrence counts of all basic twigs ("patterns")
/// of size <= max_level, keyed by canonical twig code (Section 4).
///
/// Storage is laid out for the estimation hot path: entries (code, hash,
/// count) live in an append-only array, and lookups go through an
/// open-addressing table of (code hash, entry index) slots probed linearly
/// — no node-based map, no per-probe allocation, and callers that already
/// know the 64-bit code hash (a Twig with a warm cache) never re-hash the
/// string. Patterns are only ever inserted or overwritten, never removed
/// (pruning builds a new summary), so the table needs no tombstones. The
/// per-level code lists serve persistence and level-ordered iteration.
///
/// `complete_through_level` records up to which level the summary is
/// guaranteed to contain *every* occurring pattern: a fresh K-lattice is
/// complete through K, so a missed lookup at size <= K means selectivity 0;
/// after δ-derivable pruning only levels 1-2 stay complete, and a missed
/// lookup must fall through to decomposition (Lemma 5 guarantees this is
/// lossless at δ = 0).
class LatticeSummary {
 public:
  /// Creates an empty summary for patterns of size up to `max_level` >= 2.
  explicit LatticeSummary(int max_level);

  int max_level() const { return max_level_; }

  int complete_through_level() const { return complete_through_level_; }
  void set_complete_through_level(int level) {
    complete_through_level_ = level;
  }

  /// Inserts (or overwrites) a pattern with its occurrence count. `twig`
  /// must have size in [1, max_level] and count > 0.
  Status Insert(const Twig& twig, uint64_t count);

  /// Looks up an exact pattern; nullopt when absent. Allocation-free: uses
  /// the twig's cached canonical code and hash.
  TL_HOT std::optional<uint64_t> Lookup(const Twig& twig) const {
    return LookupHashed(twig.CanonicalHash(), twig.CanonicalCode());
  }

  /// Looks up by canonical code, hashing it first.
  std::optional<uint64_t> LookupCode(std::string_view code) const;

  /// Looks up by canonical code whose 64-bit HashBytes value the caller
  /// already has — the hot-path entry point (one probe chain, no hashing,
  /// no allocation). `hash` must equal HashBytes(code).
  TL_HOT std::optional<uint64_t> LookupHashed(
      uint64_t hash, std::string_view code) const;

  /// Canonical codes stored at `level` (1-based), in insertion order.
  const std::vector<std::string>& PatternsAtLevel(int level) const;

  /// Number of patterns at `level`, or total with level == 0.
  size_t NumPatterns(int level = 0) const;

  /// Estimated storage footprint: per pattern, the canonical code bytes plus
  /// the 8-byte count plus 8 bytes of table overhead. This is the figure
  /// reported as "summary size" in the experiments (Table 3, Fig. 10).
  size_t MemoryBytes() const { return memory_bytes_; }

  /// Serializes to the checksummed binary container ("TLSUMMARY v2", see
  /// summary_format.h), written atomically (temp file + fsync + rename) so
  /// a crash mid-save can never leave a torn file at `path`. No label
  /// dictionary is embedded; use SaveSummaryV2 to embed one.
  Status SaveToFile(const std::string& path) const;

  /// Serializes to the legacy "TLSUMMARY v1" text format (no checksums, no
  /// atomicity). Kept for cross-version tests and downgrade paths.
  Status SaveToFileV1(const std::string& path) const;

  /// Loads either format (v1 text or v2 container, sniffed by magic). A
  /// section-corrupt v2 file is salvaged — see LoadSummary in
  /// summary_format.h for the variant that reports salvage details and the
  /// embedded dictionary.
  static Result<LatticeSummary> LoadFromFile(const std::string& path);

  /// Parses the v1 text format from an in-memory buffer. Hardened against
  /// corrupt input: header values are range-checked, the pattern count is
  /// capped by the buffer size, and trailing garbage is rejected. `origin`
  /// is used in error messages only.
  static Result<LatticeSummary> FromV1Text(std::string_view contents,
                                           const std::string& origin);

  /// Largest max_level any parser accepts; a corrupt header cannot trigger
  /// an unbounded allocation or load loop. A level is a pattern size, and
  /// no query is larger.
  static constexpr int kMaxLevelCap = Twig::kMaxQueryNodes;

 private:
  /// A stored pattern: the code string is authoritative for persistence;
  /// the hash is precomputed so rehashing the table never touches strings.
  struct Entry {
    std::string code;
    uint64_t hash = 0;
    uint64_t count = 0;
  };

  /// Open-addressing slot: full 64-bit hash for cheap mismatch rejection,
  /// plus the index of its entry (kSlotEmpty when free).
  struct Slot {
    uint64_t hash = 0;
    uint32_t entry = kSlotEmpty;
  };

  static constexpr uint32_t kSlotEmpty = static_cast<uint32_t>(-1);

  /// Index of the slot holding (hash, code), or of the empty slot that
  /// ends its probe chain when absent. Table must be non-empty.
  size_t ProbeSlot(uint64_t hash, std::string_view code) const;

  /// Grows/rebuilds the slot table to `new_slot_count` (a power of two).
  void Rehash(size_t new_slot_count);

  int max_level_;
  int complete_through_level_;
  std::vector<Entry> entries_;          // append-only; slots index this
  std::vector<Slot> slots_;             // open-addressing index over entries_
  size_t slot_mask_ = 0;                // slots_.size() - 1 (power of two)
  std::vector<std::vector<std::string>> level_codes_;  // [level] -> codes
  size_t memory_bytes_ = 0;
};

}  // namespace treelattice

#endif  // TREELATTICE_SUMMARY_LATTICE_SUMMARY_H_
