// Fuzz harness for the summary loaders: the v1 text parser
// (LatticeSummary::FromV1Text) over raw bytes, and the TLSUMMARY v2
// container (LoadSummary / VerifySummaryFile) via a scratch file, since
// the v2 reader is file-based. Cross-checks the two v2 entry points:
// a file Verify reports intact must Load without salvage.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include <unistd.h>

#include "fuzz_target.h"
#include "io/env.h"
#include "summary/lattice_summary.h"
#include "summary/summary_format.h"

namespace {

// One scratch file per process; iterations overwrite it in place, and it
// is removed, with the .tmp sibling a failed save can leave, at exit.
const std::string& ScratchPath() {
  static const std::string* path = [] {
    const char* tmp = ::getenv("TMPDIR");
    std::string base = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    std::atexit([] {
      std::remove(ScratchPath().c_str());
      std::remove((ScratchPath() + ".tmp").c_str());
    });
    return new std::string(base + "/tl_fuzz_summary." +
                           std::to_string(::getpid()) + ".bin");
  }();
  return *path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);

  (void)treelattice::LatticeSummary::FromV1Text(bytes, "fuzz-input");

  treelattice::Env* env = treelattice::Env::Default();
  if (!treelattice::WriteFileAtomic(env, ScratchPath(), bytes).ok()) {
    return 0;  // scratch dir unwritable; nothing to test
  }
  treelattice::Result<treelattice::VerifyReport> report =
      treelattice::VerifySummaryFile(env, ScratchPath());
  treelattice::Result<treelattice::LoadedSummary> loaded =
      treelattice::LoadSummary(env, ScratchPath());
  if (report.ok() && report->intact) {
    // Verify and Load must agree on an intact file.
    if (!loaded.ok() || loaded->salvaged) __builtin_trap();
  }
  if (loaded.ok() && loaded->format_version == 2) {
    // Whatever survived (possibly salvaged) must round-trip cleanly.
    const treelattice::LabelDict* dict =
        loaded->dict.has_value() ? &*loaded->dict : nullptr;
    treelattice::Status saved = treelattice::SaveSummaryV2(
        loaded->summary, dict, env, ScratchPath());
    if (!saved.ok()) __builtin_trap();
    treelattice::Result<treelattice::LoadedSummary> reloaded =
        treelattice::LoadSummary(env, ScratchPath());
    if (!reloaded.ok() || reloaded->salvaged) __builtin_trap();
    if (reloaded->summary.NumPatterns() !=
        loaded->summary.NumPatterns()) {
      __builtin_trap();
    }
  }
  return 0;
}
