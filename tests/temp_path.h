#ifndef TREELATTICE_TESTS_TEMP_PATH_H_
#define TREELATTICE_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <string>

#include <gtest/gtest.h>

namespace treelattice {

/// A TempDir() path for `stem` that no other test case or process shares:
/// ctest runs every case in its own process, possibly in parallel, so the
/// file name carries the running test's suite and name plus the process
/// id. An extension on `stem` stays last: "doc.xml" becomes
/// "doc_<suite>.<test>_<pid>.xml". Tests name every file they write
/// through this helper; tools/tl_lint.py flags a literal name joined to
/// TempDir().
inline std::string UniqueTempPath(const std::string& stem) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("global")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_') {
      c = '_';
    }
  }
  const size_t dot = std::min(stem.rfind('.'), stem.size());
  const std::string base = stem.substr(0, dot);
  const std::string extension = stem.substr(dot);
  return testing::TempDir() + "/" + base + "_" + tag + "_" +
         std::to_string(getpid()) + extension;
}

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_TEMP_PATH_H_
