#include "summary/summary_format.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "twig/twig.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "xml/dict_codec.h"

namespace treelattice {
namespace {

/// Persistence telemetry: successful operations, bytes moved, and — making
/// the fault-injection machinery observable — checksum failures and salvage
/// loads.
struct SummaryMetrics {
  obs::Counter* saves;
  obs::Counter* save_bytes;
  obs::Counter* loads;
  obs::Counter* load_bytes;
  obs::Counter* crc_failures;
  obs::Counter* salvage_loads;

  static SummaryMetrics& Get() {
    static SummaryMetrics m = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      namespace names = obs::metric_names;
      return SummaryMetrics{registry->counter(names::kSummarySaves),
                            registry->counter(names::kSummarySaveBytes),
                            registry->counter(names::kSummaryLoads),
                            registry->counter(names::kSummaryLoadBytes),
                            registry->counter(names::kSummaryCrcFailures),
                            registry->counter(names::kSummarySalvageLoads)};
    }();
    return m;
  }
};

constexpr std::string_view kMagicV2 = "TLSUM2\r\n";
constexpr std::string_view kMagicV1 = "TLSUMMARY v1";
constexpr size_t kHeaderPayloadBytes = 24;
// magic + header payload + header crc
constexpr size_t kHeaderBytes = 8 + kHeaderPayloadBytes + 4;
// tag + payload size
constexpr size_t kSectionPrefixBytes = 1 + 8;

constexpr char kTagDict = 'D';
constexpr char kTagLevel = 'L';
constexpr char kTagEnd = 'E';

std::string SectionName(char tag, int level) {
  switch (tag) {
    case kTagDict:
      return "dict section";
    case kTagLevel:
      return "level " + std::to_string(level) + " section";
    case kTagEnd:
      return "end marker";
    default:
      return "section '" + std::string(1, tag) + "'";
  }
}

// One parsed (or failed) section: integrity verdict plus, when intact, the
// decoded contents.
struct ParsedSection {
  SectionIntegrity info;
  std::vector<std::pair<Twig, uint64_t>> entries;  // intact 'L' sections
  std::optional<LabelDict> dict;                   // intact 'D' section
};

struct ParsedV2 {
  int max_level = 0;
  int complete = 0;
  bool has_dict = false;
  uint64_t total_patterns = 0;
  std::vector<ParsedSection> sections;
  bool intact = false;
  int salvage_complete = 0;
  std::string first_detail;
};

Status ParseSectionPayload(char tag, int level, std::string_view payload,
                           ParsedSection* out) {
  ByteReader reader(payload);
  switch (tag) {
    case kTagDict: {
      LabelDict dict;
      TL_RETURN_IF_ERROR(DecodeLabelDict(payload, &dict));
      out->dict = std::move(dict);
      return Status::OK();
    }
    case kTagLevel: {
      uint32_t stored_level = 0;
      uint64_t n = 0;
      if (!reader.GetFixed32(&stored_level) || !reader.GetFixed64(&n)) {
        return Status::Corruption("truncated level section header");
      }
      if (stored_level != static_cast<uint32_t>(level)) {
        return Status::Corruption("level number mismatch");
      }
      // Each entry takes at least 12 bytes, so a count beyond the payload
      // size is corruption, not a huge level.
      if (n > payload.size()) {
        return Status::Corruption("implausible pattern count");
      }
      out->entries.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t count = 0;
        uint32_t len = 0;
        std::string_view code;
        if (!reader.GetFixed64(&count) || !reader.GetFixed32(&len) ||
            !reader.GetBytes(len, &code)) {
          return Status::Corruption("truncated pattern entry");
        }
        Result<Twig> twig = Twig::FromCanonicalCode(std::string(code));
        if (!twig.ok()) {
          return Status::Corruption("bad canonical code: " +
                                    twig.status().message());
        }
        if (twig->size() != level) {
          return Status::Corruption("pattern filed under wrong level");
        }
        if (count == 0) {
          return Status::Corruption("zero-count pattern");
        }
        out->entries.emplace_back(std::move(*twig), count);
      }
      if (!reader.empty()) {
        return Status::Corruption("trailing bytes in level section");
      }
      return Status::OK();
    }
    case kTagEnd:
      if (!payload.empty()) {
        return Status::Corruption("end marker carries payload");
      }
      return Status::OK();
    default:
      return Status::Corruption("unknown section tag");
  }
}

/// Walks a v2 container. Returns non-OK only when the header is unusable
/// (nothing salvageable); section-level damage is recorded per section.
Status ParseV2(std::string_view contents, const std::string& origin,
               ParsedV2* out) {
  if (contents.size() < kHeaderBytes) {
    return Status::Corruption("truncated v2 header in " + origin);
  }
  uint32_t stored_crc = DecodeFixed32(contents.data() + 8 +
                                      kHeaderPayloadBytes);
  if (crc32c::Value(contents.substr(0, 8 + kHeaderPayloadBytes)) !=
      stored_crc) {
    SummaryMetrics::Get().crc_failures->Increment();
    return Status::Corruption("header checksum mismatch in " + origin);
  }
  ByteReader header(contents.substr(8, kHeaderPayloadBytes));
  uint32_t max_level = 0, complete = 0, flags = 0, reserved = 0;
  uint64_t total_patterns = 0;
  header.GetFixed32(&max_level);
  header.GetFixed32(&complete);
  header.GetFixed32(&flags);
  header.GetFixed32(&reserved);
  header.GetFixed64(&total_patterns);
  (void)reserved;
  if (max_level < 2 ||
      max_level > static_cast<uint32_t>(LatticeSummary::kMaxLevelCap)) {
    return Status::Corruption("implausible max level in " + origin);
  }
  if (complete > max_level) {
    return Status::Corruption("completeness exceeds max level in " + origin);
  }
  out->max_level = static_cast<int>(max_level);
  out->complete = static_cast<int>(complete);
  out->has_dict = (flags & 1u) != 0;
  out->total_patterns = total_patterns;

  std::vector<std::pair<char, int>> expected;
  if (out->has_dict) expected.emplace_back(kTagDict, 0);
  for (int level = 1; level <= out->max_level; ++level) {
    expected.emplace_back(kTagLevel, level);
  }
  expected.emplace_back(kTagEnd, 0);

  size_t pos = kHeaderBytes;
  size_t next = 0;
  std::string stop_detail;  // set when the file structure breaks off
  for (; next < expected.size(); ++next) {
    auto [tag, level] = expected[next];
    if (contents.size() - pos < kSectionPrefixBytes + 4) {
      stop_detail = "file truncated before " + SectionName(tag, level);
      break;
    }
    char actual_tag = contents[pos];
    uint64_t payload_size = DecodeFixed64(contents.data() + pos + 1);
    if (actual_tag != tag) {
      stop_detail = "unexpected tag where " + SectionName(tag, level) +
                    " should start";
      break;
    }
    if (payload_size > contents.size() - pos - kSectionPrefixBytes - 4) {
      stop_detail = SectionName(tag, level) + " truncated";
      break;
    }
    std::string_view raw =
        contents.substr(pos, kSectionPrefixBytes + payload_size);
    uint32_t crc =
        DecodeFixed32(contents.data() + pos + kSectionPrefixBytes +
                      payload_size);
    pos += kSectionPrefixBytes + payload_size + 4;

    ParsedSection section;
    section.info.tag = tag;
    section.info.level = level;
    if (crc32c::Value(raw) != crc) {
      SummaryMetrics::Get().crc_failures->Increment();
      section.info.detail = SectionName(tag, level) + " checksum mismatch";
    } else {
      Status parsed = ParseSectionPayload(
          tag, level, raw.substr(kSectionPrefixBytes), &section);
      if (parsed.ok()) {
        section.info.intact = true;
        section.info.patterns = section.entries.size();
      } else {
        section.info.detail =
            SectionName(tag, level) + ": " + parsed.message();
      }
    }
    out->sections.push_back(std::move(section));
  }
  // Sections the walk never reached (file broke off).
  for (; next < expected.size(); ++next) {
    ParsedSection missing;
    missing.info.tag = expected[next].first;
    missing.info.level = expected[next].second;
    missing.info.detail =
        stop_detail.empty()
            ? SectionName(missing.info.tag, missing.info.level) + " missing"
            : stop_detail;
    stop_detail.clear();  // only the first missing section gets the cause
    out->sections.push_back(std::move(missing));
  }

  std::string trailing_detail;
  bool reached_end = !out->sections.empty() &&
                     out->sections.back().info.tag == kTagEnd &&
                     out->sections.back().info.intact;
  if (reached_end && pos != contents.size()) {
    trailing_detail = "trailing bytes after end marker";
  }

  bool sections_ok = true;
  uint64_t loaded_patterns = 0;
  out->salvage_complete = out->complete;
  for (const ParsedSection& section : out->sections) {
    if (!section.info.intact) {
      sections_ok = false;
      if (out->first_detail.empty()) {
        out->first_detail = section.info.detail;
      }
      if (section.info.tag == kTagLevel) {
        out->salvage_complete =
            std::min(out->salvage_complete, section.info.level - 1);
      }
    } else if (section.info.tag == kTagLevel) {
      loaded_patterns += section.info.patterns;
    }
  }
  if (sections_ok && loaded_patterns != total_patterns) {
    sections_ok = false;
    out->first_detail = "header pattern count (" +
                        std::to_string(total_patterns) +
                        ") does not match sections (" +
                        std::to_string(loaded_patterns) + ")";
  }
  if (sections_ok && !trailing_detail.empty()) {
    sections_ok = false;
    out->first_detail = trailing_detail;
  }
  out->intact = sections_ok;
  return Status::OK();
}

void AppendSection(std::string* buf, char tag, std::string_view payload) {
  size_t start = buf->size();
  buf->push_back(tag);
  PutFixed64(buf, payload.size());
  buf->append(payload);
  PutFixed32(buf,
             crc32c::Value(std::string_view(*buf).substr(start)));
}

}  // namespace

Status SaveSummaryV2(const LatticeSummary& summary, const LabelDict* dict,
                     Env* env, const std::string& path) {
  obs::TraceSpan span("summary.save", "summary");
  std::string buf;
  buf.append(kMagicV2);
  PutFixed32(&buf, static_cast<uint32_t>(summary.max_level()));
  PutFixed32(&buf, static_cast<uint32_t>(summary.complete_through_level()));
  PutFixed32(&buf, dict != nullptr ? 1u : 0u);
  PutFixed32(&buf, 0u);  // reserved
  PutFixed64(&buf, summary.NumPatterns());
  PutFixed32(&buf, crc32c::Value(buf));

  std::string payload;
  if (dict != nullptr) {
    EncodeLabelDict(*dict, &payload);
    AppendSection(&buf, kTagDict, payload);
  }
  for (int level = 1; level <= summary.max_level(); ++level) {
    payload.clear();
    const std::vector<std::string>& codes = summary.PatternsAtLevel(level);
    PutFixed32(&payload, static_cast<uint32_t>(level));
    PutFixed64(&payload, codes.size());
    for (const std::string& code : codes) {
      PutFixed64(&payload, *summary.LookupCode(code));
      PutFixed32(&payload, static_cast<uint32_t>(code.size()));
      payload.append(code);
    }
    AppendSection(&buf, kTagLevel, payload);
  }
  AppendSection(&buf, kTagEnd, "");
  Status status = WriteFileAtomic(env, path, buf);
  if (status.ok()) {
    SummaryMetrics::Get().saves->Increment();
    SummaryMetrics::Get().save_bytes->Increment(buf.size());
  }
  return status;
}

namespace {

/// LoadSummary without the sidecar: the file's own contents.
Result<LoadedSummary> LoadSummaryFile(Env* env, const std::string& path) {
  std::string contents;
  TL_RETURN_IF_ERROR(ReadFileToString(env, path, &contents));
  SummaryMetrics::Get().loads->Increment();
  SummaryMetrics::Get().load_bytes->Increment(contents.size());

  if (std::string_view(contents).substr(0, kMagicV2.size()) == kMagicV2) {
    ParsedV2 parsed;
    TL_RETURN_IF_ERROR(ParseV2(contents, path, &parsed));
    LatticeSummary summary(parsed.max_level);
    std::optional<LabelDict> dict;
    for (ParsedSection& section : parsed.sections) {
      if (!section.info.intact) continue;
      if (section.info.tag == kTagDict) {
        dict = std::move(section.dict);
      } else if (section.info.tag == kTagLevel) {
        for (auto& [twig, count] : section.entries) {
          TL_RETURN_IF_ERROR(summary.Insert(twig, count));
        }
      }
    }
    summary.set_complete_through_level(
        parsed.intact ? parsed.complete : parsed.salvage_complete);
    if (!parsed.intact) SummaryMetrics::Get().salvage_loads->Increment();
    return LoadedSummary{std::move(summary), std::move(dict), 2,
                         !parsed.intact, parsed.first_detail};
  }

  if (std::string_view(contents).substr(0, kMagicV1.size()) == kMagicV1) {
    Result<LatticeSummary> summary =
        LatticeSummary::FromV1Text(contents, path);
    if (!summary.ok()) return summary.status();
    return LoadedSummary{std::move(*summary), std::nullopt, 1, false, ""};
  }
  return Status::Corruption("bad summary header in " + path);
}

}  // namespace

Result<LoadedSummary> LoadSummary(Env* env, const std::string& path) {
  obs::TraceSpan span("summary.load", "summary");
  Result<LoadedSummary> loaded = LoadSummaryFile(env, path);
  const std::string sidecar_path = path + ".dict";
  if (!loaded.ok() || loaded->dict || !env->FileExists(sidecar_path)) {
    return loaded;
  }
  Result<LabelDict> sidecar = LoadLabelDict(env, sidecar_path);
  if (!sidecar.ok()) {
    return Status(sidecar.status().code(),
                  "label dictionary " + sidecar_path + ": " +
                      sidecar.status().message());
  }
  loaded->dict = std::move(*sidecar);
  loaded->dict_from_sidecar = true;
  return loaded;
}

Result<VerifyReport> VerifySummaryFile(Env* env, const std::string& path) {
  obs::TraceSpan span("summary.verify", "summary");
  std::string contents;
  TL_RETURN_IF_ERROR(ReadFileToString(env, path, &contents));

  VerifyReport report;
  if (std::string_view(contents).substr(0, kMagicV2.size()) == kMagicV2) {
    ParsedV2 parsed;
    TL_RETURN_IF_ERROR(ParseV2(contents, path, &parsed));
    report.format_version = 2;
    report.max_level = parsed.max_level;
    report.complete_through_level = parsed.complete;
    report.has_dict = parsed.has_dict;
    report.total_patterns = parsed.total_patterns;
    report.intact = parsed.intact;
    report.salvage_complete_through_level =
        parsed.intact ? parsed.complete : parsed.salvage_complete;
    report.detail = parsed.first_detail;
    for (ParsedSection& section : parsed.sections) {
      report.sections.push_back(std::move(section.info));
    }
    return report;
  }

  if (std::string_view(contents).substr(0, kMagicV1.size()) == kMagicV1) {
    report.format_version = 1;
    Result<LatticeSummary> summary =
        LatticeSummary::FromV1Text(contents, path);
    if (summary.ok()) {
      report.max_level = summary->max_level();
      report.complete_through_level = summary->complete_through_level();
      report.salvage_complete_through_level =
          summary->complete_through_level();
      report.total_patterns = summary->NumPatterns();
      report.intact = true;
    } else {
      report.detail = summary.status().message();
    }
    return report;
  }
  return Status::Corruption("bad summary header in " + path);
}

// Wrappers declared in lattice_summary.h: persistence for the summary goes
// through the v2 container on the default Env.
Status LatticeSummary::SaveToFile(const std::string& path) const {
  return SaveSummaryV2(*this, nullptr, Env::Default(), path);
}

Result<LatticeSummary> LatticeSummary::LoadFromFile(const std::string& path) {
  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->summary);
}

}  // namespace treelattice
