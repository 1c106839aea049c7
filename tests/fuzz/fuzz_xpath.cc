// Fuzz harness for the query front-ends: the XPath-subset compiler
// (xpath/xpath.h), the twig text parser (Twig::Parse), and CompileQuery,
// the front door that serve, estimate and truth read untrusted query
// strings through. Accepted twigs are round-tripped through the canonical
// code to catch corruption that a clean parse would otherwise hide, and a
// query CompileQuery accepts must be within its node cap.

#include <string>
#include <string_view>

#include "fuzz_target.h"
#include "twig/twig.h"
#include "xml/label_dict.h"
#include "xpath/xpath.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);

  {
    treelattice::LabelDict dict;
    treelattice::Result<treelattice::Twig> twig =
        treelattice::CompileXPath(text, &dict);
    if (twig.ok()) {
      // Rendering an accepted query must not crash (predicate depth and
      // twig size are bounded by the compiler's own caps).
      (void)treelattice::TwigToXPath(*twig, dict);
    }
  }

  {
    treelattice::LabelDict dict;
    treelattice::Result<treelattice::Twig> twig =
        treelattice::CompileQuery(text, &dict);
    if (twig.ok() && twig->size() > treelattice::Twig::kMaxQueryNodes) {
      __builtin_trap();
    }
  }

  {
    treelattice::LabelDict dict;
    treelattice::Result<treelattice::Twig> twig =
        treelattice::Twig::Parse(text, &dict);
    if (twig.ok()) {
      std::string code = twig->CanonicalCode();
      treelattice::Result<treelattice::Twig> reparsed =
          treelattice::Twig::FromCanonicalCode(code);
      // The canonical code of an accepted twig must itself parse back to
      // a twig with the same canonical code.
      if (!reparsed.ok()) __builtin_trap();
      if (reparsed->CanonicalCode() != code) __builtin_trap();
    }
  }
  return 0;
}
