#ifndef TREELATTICE_TESTS_BRUTE_FORCE_H_
#define TREELATTICE_TESTS_BRUTE_FORCE_H_

#include <cstdint>

#include "twig/twig.h"
#include "xml/document.h"

namespace treelattice {

/// Reference twig-match counter by explicit enumeration of all 1-1
/// mappings (Definition 1). Exponential in the worst case: match_test's
/// oracle for MatchCounter on small documents.
uint64_t BruteForceCount(const Document& doc, const Twig& query);

}  // namespace treelattice

#endif  // TREELATTICE_TESTS_BRUTE_FORCE_H_
