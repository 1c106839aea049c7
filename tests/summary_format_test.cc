// TLSUMMARY v2 container tests: round trips with and without the embedded
// dictionary, fault-injected saves, level-by-level salvage of damaged
// files, the verify report, v1 compatibility, and the dict codec
// (including the label-id shift bug the escaped format fixes).

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/env.h"
#include "io/fault_env.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "xml/dict_codec.h"

namespace treelattice {
namespace {

Twig MustParse(const std::string& text, LabelDict* dict) {
  Result<Twig> result = Twig::Parse(text, dict);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A three-level summary with a dictionary, the shared fixture for the
/// format tests.
struct Fixture {
  LabelDict dict;
  LatticeSummary summary{3};

  Fixture() {
    EXPECT_TRUE(summary.Insert(MustParse("a", &dict), 10).ok());
    EXPECT_TRUE(summary.Insert(MustParse("b", &dict), 8).ok());
    EXPECT_TRUE(summary.Insert(MustParse("a(b)", &dict), 6).ok());
    EXPECT_TRUE(summary.Insert(MustParse("a(b,c)", &dict), 2).ok());
    summary.set_complete_through_level(3);
  }
};

TEST(SummaryV2Test, RoundTripWithDict) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_roundtrip.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(
      SaveSummaryV2(fx.summary, &fx.dict, Env::Default(), path).ok());

  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->format_version, 2);
  EXPECT_FALSE(loaded->salvaged);
  EXPECT_TRUE(loaded->corruption_detail.empty());
  EXPECT_EQ(loaded->summary.max_level(), 3);
  EXPECT_EQ(loaded->summary.complete_through_level(), 3);
  EXPECT_EQ(loaded->summary.NumPatterns(), 4u);
  EXPECT_EQ(*loaded->summary.Lookup(MustParse("a(b,c)", &fx.dict)), 2u);
  ASSERT_TRUE(loaded->dict.has_value());
  ASSERT_EQ(loaded->dict->size(), fx.dict.size());
  for (size_t i = 0; i < fx.dict.size(); ++i) {
    EXPECT_EQ(loaded->dict->Name(static_cast<LabelId>(i)),
              fx.dict.Name(static_cast<LabelId>(i)));
  }
}

TEST(SummaryV2Test, RoundTripWithoutDict) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_nodict.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFile(path).ok());
  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->dict.has_value());
  EXPECT_EQ(loaded->summary.NumPatterns(), 4u);
  EXPECT_EQ(loaded->summary.MemoryBytes(), fx.summary.MemoryBytes());
}

TEST(SummaryV2Test, EmptySummaryRoundTrips) {
  LatticeSummary empty(2);
  const ScopedTempPath path_file("fmt_empty.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(empty.SaveToFile(path).ok());
  Result<LatticeSummary> loaded = LatticeSummary::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumPatterns(), 0u);
  EXPECT_EQ(loaded->max_level(), 2);
}

TEST(SummaryV2Test, VerifyReportsIntactFile) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_verify_ok.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(
      SaveSummaryV2(fx.summary, &fx.dict, Env::Default(), path).ok());
  Result<VerifyReport> report = VerifySummaryFile(Env::Default(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->intact);
  EXPECT_EQ(report->format_version, 2);
  EXPECT_EQ(report->max_level, 3);
  EXPECT_TRUE(report->has_dict);
  EXPECT_EQ(report->total_patterns, 4u);
  // dict + 3 levels + end marker
  ASSERT_EQ(report->sections.size(), 5u);
  for (const SectionIntegrity& section : report->sections) {
    EXPECT_TRUE(section.intact) << section.detail;
  }
  EXPECT_EQ(report->sections[1].patterns, 2u);  // level 1: a, b
  EXPECT_EQ(report->sections[2].patterns, 1u);  // level 2: a(b)
}

TEST(SummaryV2Test, TruncationSalvagesIntactPrefix) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_truncated.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(
      SaveSummaryV2(fx.summary, &fx.dict, Env::Default(), path).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());

  // Chop the file so level 3 (and the end marker) are gone but levels 1-2
  // survive: cut 40 bytes, well inside the level-3 section.
  const ScopedTempPath truncated_path_file("fmt_truncated_cut.tls");
  const std::string& truncated_path = truncated_path_file.path();
  ASSERT_TRUE(WriteFileAtomic(Env::Default(), truncated_path,
                              contents.substr(0, contents.size() - 40))
                  .ok());

  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), truncated_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->salvaged);
  EXPECT_FALSE(loaded->corruption_detail.empty());
  // Levels 1-2 survived; level 3 did not, so completeness drops to 2.
  EXPECT_EQ(loaded->summary.complete_through_level(), 2);
  EXPECT_EQ(loaded->summary.NumPatterns(1), 2u);
  EXPECT_EQ(loaded->summary.NumPatterns(2), 1u);
  EXPECT_EQ(loaded->summary.NumPatterns(3), 0u);
  // The dictionary lives at the front and survived.
  EXPECT_TRUE(loaded->dict.has_value());

  Result<VerifyReport> report =
      VerifySummaryFile(Env::Default(), truncated_path);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->intact);
  EXPECT_EQ(report->salvage_complete_through_level, 2);
}

TEST(SummaryV2Test, CorruptMiddleLevelKeepsLaterLookups) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_midflip.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFile(path).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());

  // Flip one bit inside the level-2 section payload. Locate it by finding
  // the 'L' tag with level number 2 (tag byte, 8-byte size, u32 level).
  size_t pos = std::string::npos;
  for (size_t i = 8; i + 13 < contents.size(); ++i) {
    if (contents[i] == 'L' && static_cast<unsigned char>(contents[i + 9]) == 2 &&
        contents[i + 10] == 0 && contents[i + 11] == 0 &&
        contents[i + 12] == 0) {
      pos = i;
      break;
    }
  }
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 15] = static_cast<char>(contents[pos + 15] ^ 0x40);
  const ScopedTempPath flipped_file("fmt_midflip_bad.tls");
  const std::string& flipped = flipped_file.path();
  ASSERT_TRUE(WriteFileAtomic(Env::Default(), flipped, contents).ok());

  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), flipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->salvaged);
  // Level 2 is lost, so the completeness guarantee stops at level 1 even
  // though level 3's own checksum verified and its counts remain usable.
  EXPECT_EQ(loaded->summary.complete_through_level(), 1);
  EXPECT_EQ(loaded->summary.NumPatterns(2), 0u);
  EXPECT_EQ(loaded->summary.NumPatterns(3), 1u);
}

TEST(SummaryV2Test, HeaderCorruptionIsFatal) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_badheader.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFile(path).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  contents[10] = static_cast<char>(contents[10] ^ 0x01);  // inside header
  ASSERT_TRUE(WriteFileAtomic(Env::Default(), path, contents).ok());
  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SummaryV2Test, TrailingGarbageFlagged) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_trailing.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFile(path).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  ASSERT_TRUE(
      WriteFileAtomic(Env::Default(), path, contents + "EXTRA").ok());
  Result<VerifyReport> report = VerifySummaryFile(Env::Default(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->intact);
  // Nothing of the data itself was lost.
  EXPECT_EQ(report->salvage_complete_through_level, 3);
}

TEST(SummaryV2Test, FaultInjectedSaveNeverLeavesTornFile) {
  Fixture fx;
  FaultInjectingEnv env(Env::Default());
  const ScopedTempPath path_file("fmt_fault_save.tls");
  const std::string& path = path_file.path();

  // Write an initial good version, then fail a re-save at every byte
  // budget; the good version must survive every failure mode.
  ASSERT_TRUE(SaveSummaryV2(fx.summary, &fx.dict, &env, path).ok());
  int64_t full_size = static_cast<int64_t>(*env.GetFileSize(path));
  for (int64_t budget = 0; budget < full_size; budget += 13) {
    for (bool torn : {false, true}) {
      env.Reset();
      env.config().fail_write_after_bytes = budget;
      env.config().torn_writes = torn;
      Status status = SaveSummaryV2(fx.summary, &fx.dict, &env, path);
      EXPECT_EQ(status.code(), StatusCode::kIOError);
      EXPECT_FALSE(env.FileExists(path + ".tmp"));
      Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
      ASSERT_TRUE(loaded.ok());
      EXPECT_FALSE(loaded->salvaged);
      EXPECT_EQ(loaded->summary.NumPatterns(), 4u);
    }
  }

  // Rename failure: same story.
  env.Reset();
  env.config().fail_rename = true;
  EXPECT_FALSE(SaveSummaryV2(fx.summary, &fx.dict, &env, path).ok());
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
  EXPECT_TRUE(LoadSummary(Env::Default(), path).ok());

  // Sync failure too.
  env.Reset();
  env.config().fail_sync = true;
  EXPECT_FALSE(SaveSummaryV2(fx.summary, &fx.dict, &env, path).ok());
  EXPECT_TRUE(LoadSummary(Env::Default(), path).ok());
}

TEST(SummaryV2Test, LoadSurvivesShortReadsAndFailsCleanlyOnEio) {
  Fixture fx;
  FaultInjectingEnv env(Env::Default());
  const ScopedTempPath path_file("fmt_fault_load.tls");
  const std::string& path = path_file.path();
  ASSERT_TRUE(SaveSummaryV2(fx.summary, &fx.dict, &env, path).ok());

  env.config().short_read_cap = 5;
  Result<LoadedSummary> loaded = LoadSummary(&env, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->summary.NumPatterns(), 4u);

  env.Reset();
  env.config().fail_read = true;
  Result<LoadedSummary> failed = LoadSummary(&env, path);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
}

TEST(SummaryV1CompatTest, V1TextStillLoads) {
  Fixture fx;
  const ScopedTempPath path_file("fmt_v1.txt");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFileV1(path).ok());

  // Through the plain API...
  Result<LatticeSummary> loaded = LatticeSummary::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumPatterns(), 4u);
  EXPECT_EQ(loaded->complete_through_level(), 3);

  // ...and through LoadSummary, which reports the version and no dict.
  Result<LoadedSummary> rich = LoadSummary(Env::Default(), path);
  ASSERT_TRUE(rich.ok());
  EXPECT_EQ(rich->format_version, 1);
  EXPECT_FALSE(rich->dict.has_value());

  Result<VerifyReport> report = VerifySummaryFile(Env::Default(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format_version, 1);
  EXPECT_TRUE(report->intact);
}

TEST(SummaryV1CompatTest, SidecarDictionaryLoadsWithTheSummary) {
  // A v1 file carries no dictionary; LoadSummary takes its .dict sidecar.
  Fixture fx;
  const ScopedTempPath path_file("fmt_v1_sidecar.txt");
  const std::string& path = path_file.path();
  ASSERT_TRUE(fx.summary.SaveToFileV1(path).ok());
  ASSERT_TRUE(SaveLabelDict(fx.dict, Env::Default(), path + ".dict").ok());

  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->format_version, 1);
  ASSERT_TRUE(loaded->dict.has_value());
  EXPECT_TRUE(loaded->dict_from_sidecar);
  ASSERT_EQ(loaded->dict->size(), fx.dict.size());
  for (size_t i = 0; i < fx.dict.size(); ++i) {
    const LabelId id = static_cast<LabelId>(i);
    EXPECT_EQ(loaded->dict->Name(id), fx.dict.Name(id));
  }

  // A sidecar that exists but does not load fails the whole load.
  {
    std::ofstream out(path + ".dict", std::ios::trunc);
    out << "dup\ndup\n";
  }
  Result<LoadedSummary> broken = LoadSummary(Env::Default(), path);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kCorruption);
}

TEST(SummaryV1CompatTest, SeedWrittenFileLoads) {
  // Byte-for-byte what the seed code's SaveToFile produced.
  const ScopedTempPath path_file("fmt_v1_seed.txt");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "TLSUMMARY v1\n3 2\n3\n10 0\n8 1\n6 0(1)\n";
  }
  Result<LoadedSummary> loaded = LoadSummary(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->summary.NumPatterns(), 3u);
  EXPECT_EQ(loaded->summary.complete_through_level(), 2);
  EXPECT_EQ(*loaded->summary.LookupCode("0(1)"), 6u);
}

TEST(SummaryV1CompatTest, HardenedAgainstHostileHeaders) {
  auto write_and_load = [](const std::string& text) {
    const ScopedTempPath path_file("fmt_v1_hostile.txt");
    const std::string& path = path_file.path();
    std::ofstream(path) << text;
    return LatticeSummary::LoadFromFile(path);
  };
  // Trailing garbage after the declared pattern count.
  Result<LatticeSummary> r1 =
      write_and_load("TLSUMMARY v1\n3 2\n1\n10 0\nGARBAGE\n");
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);
  // complete_through_level beyond max_level.
  Result<LatticeSummary> r2 = write_and_load("TLSUMMARY v1\n3 9\n0\n");
  ASSERT_FALSE(r2.ok());
  // Pattern count far beyond what the file could hold.
  Result<LatticeSummary> r3 =
      write_and_load("TLSUMMARY v1\n3 2\n99999999999\n10 0\n");
  ASSERT_FALSE(r3.ok());
  // Absurd max_level must not allocate/loop unboundedly.
  Result<LatticeSummary> r4 =
      write_and_load("TLSUMMARY v1\n2000000000 2\n0\n");
  ASSERT_FALSE(r4.ok());
  // Negative completeness.
  Result<LatticeSummary> r5 = write_and_load("TLSUMMARY v1\n3 -1\n0\n");
  ASSERT_FALSE(r5.ok());
}

TEST(DictCodecTest, EscapedSidecarRoundTripsHostileNames) {
  LabelDict dict;
  dict.Intern("plain");
  dict.Intern("");  // the empty label that shifted every id in the seed
  dict.Intern("has\nnewline");
  dict.Intern("has%percent");
  dict.Intern("has\rreturn");
  dict.Intern("after");  // ids past the hostile ones must not shift

  const ScopedTempPath path_file("dict_roundtrip.dict");

  const std::string& path = path_file.path();
  ASSERT_TRUE(SaveLabelDict(dict, Env::Default(), path).ok());
  Result<LabelDict> loaded = LoadLabelDict(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    EXPECT_EQ(loaded->Name(static_cast<LabelId>(i)),
              dict.Name(static_cast<LabelId>(i)))
        << "LabelId " << i << " shifted";
  }
}

TEST(DictCodecTest, LegacySidecarKeepsEmptyLines) {
  // A seed-written sidecar with an empty label: the seed's LoadDict
  // skipped the empty line, shifting "c" from id 2 to id 1 and silently
  // corrupting every estimate. The fixed loader must preserve positions.
  const ScopedTempPath path_file("dict_legacy.dict");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "a\n\nc\n";
  }
  Result<LabelDict> loaded = LoadLabelDict(Env::Default(), path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->Name(0), "a");
  EXPECT_EQ(loaded->Name(1), "");
  EXPECT_EQ(loaded->Name(2), "c");
}

TEST(DictCodecTest, DuplicateNamesRejected) {
  const ScopedTempPath path_file("dict_dup.dict");
  const std::string& path = path_file.path();
  {
    std::ofstream out(path);
    out << "a\nb\na\n";
  }
  Result<LabelDict> loaded = LoadLabelDict(Env::Default(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(DictCodecTest, BinaryBlockRejectsCorruptLengths) {
  LabelDict dict;
  dict.Intern("alpha");
  dict.Intern("beta");
  std::string block;
  EncodeLabelDict(dict, &block);

  LabelDict decoded;
  ASSERT_TRUE(DecodeLabelDict(block, &decoded).ok());
  EXPECT_EQ(decoded.size(), 2u);

  // Truncated block.
  LabelDict d2;
  EXPECT_FALSE(
      DecodeLabelDict(std::string_view(block).substr(0, block.size() - 2),
                      &d2)
          .ok());
  // Length field pointing past the end.
  std::string bad = block;
  bad[4] = '\xff';
  LabelDict d3;
  EXPECT_FALSE(DecodeLabelDict(bad, &d3).ok());
}

}  // namespace
}  // namespace treelattice
