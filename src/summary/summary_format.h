#ifndef TREELATTICE_SUMMARY_SUMMARY_FORMAT_H_
#define TREELATTICE_SUMMARY_SUMMARY_FORMAT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/env.h"
#include "summary/lattice_summary.h"
#include "util/result.h"
#include "xml/label_dict.h"

namespace treelattice {

/// The "TLSUMMARY v2" single-file container (little-endian throughout):
///
///   magic   8 bytes  "TLSUM2\r\n"
///   header  u32 max_level, u32 complete_through_level,
///           u32 flags (bit0 = embedded dict), u32 reserved,
///           u64 total_patterns
///   crc     u32 crc32c(magic || header)
///   sections, each:  u8 tag, u64 payload_size, payload,
///                    u32 crc32c(tag || payload_size || payload)
///     'D' dict   payload: u32 count, { u32 len, name bytes }*
///     'L' level  payload: u32 level, u64 n, { u64 count, u32 len, code }*
///                one section per level 1..max_level, in order
///     'E' end    empty payload; marks a complete file
///
/// The container is written atomically (temp file + fsync + rename), so a
/// reader observes either the previous summary or the complete new one —
/// never a torn file. On load, each section is independently checksummed:
/// a truncated or bit-flipped file salvages level by level, keeping the
/// intact sections and lowering complete_through_level to the last level
/// before the first corrupt one, so estimators keep answering from the
/// surviving prefix instead of failing hard.

/// Writes `summary` (and, when non-null, `dict`) to `path` as a v2
/// container. Embedding the dictionary removes the summary/.dict sidecar
/// pairing hazard of the v1 format.
Status SaveSummaryV2(const LatticeSummary& summary, const LabelDict* dict,
                     Env* env, const std::string& path);

/// A loaded summary plus everything the caller needs to know about how it
/// was loaded.
struct LoadedSummary {
  LatticeSummary summary;
  /// The label dictionary: the embedded one, or else the `<path>.dict`
  /// sidecar when one exists (v1 files, and v2 files whose dict section
  /// did not survive). Absent when neither is there.
  std::optional<LabelDict> dict;
  int format_version = 0;  // 1 or 2
  /// True when parts of a v2 file were lost to corruption and the summary
  /// holds only the intact sections (complete_through_level lowered
  /// accordingly). `corruption_detail` says what was lost.
  bool salvaged = false;
  std::string corruption_detail;
  /// True when `dict` came from the sidecar.
  bool dict_from_sidecar = false;
};

/// Loads `path` in either format (sniffed by magic). Returns Corruption
/// only when nothing is salvageable (bad magic, unusable v2 header, or a
/// corrupt v1 file — v1 has no checksums to salvage by); a damaged v2 file
/// otherwise loads with `salvaged` set. A file without an embedded
/// dictionary takes its `<path>.dict` sidecar, and a sidecar that exists
/// but does not load fails the whole load.
Result<LoadedSummary> LoadSummary(Env* env, const std::string& path);

/// Integrity of one v2 section, as reported by VerifySummaryFile.
struct SectionIntegrity {
  char tag = 0;       // 'D', 'L', or 'E'
  int level = 0;      // for 'L' sections
  uint64_t patterns = 0;
  bool intact = false;
  std::string detail;  // empty when intact
};

struct VerifyReport {
  int format_version = 0;
  int max_level = 0;
  int complete_through_level = 0;
  bool has_dict = false;
  uint64_t total_patterns = 0;
  /// All checksums verify and the file is structurally complete.
  bool intact = false;
  /// complete_through_level a salvage load of this file would report.
  int salvage_complete_through_level = 0;
  std::vector<SectionIntegrity> sections;  // v2 only
  std::string detail;  // first corruption, empty when intact
};

/// Checks `path` without building a summary: verifies the header and every
/// section checksum and reports per-level integrity. Returns a non-OK
/// status only when the file cannot be opened or is not a summary at all.
Result<VerifyReport> VerifySummaryFile(Env* env, const std::string& path);

}  // namespace treelattice

#endif  // TREELATTICE_SUMMARY_SUMMARY_FORMAT_H_
