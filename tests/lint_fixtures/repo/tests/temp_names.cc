// Fixture for tl_lint's temp-name-literal rule (test sources under tests/).
#include <string>

std::string FixedName() {
  return testing::TempDir() + "/tl_fixed.txt";  // LINT-EXPECT[temp-name-literal]
}

std::string SharedOnPurpose() {
  return testing::TempDir() + "/tl_shared.txt";  // tl-lint: allow(temp-name-literal) -- fixture
}

std::string Joined(const std::string& stem) {
  return testing::TempDir() + "/" + stem;  // a bare separator names no file: clean
}
