#ifndef TREELATTICE_XML_PARSER_H_
#define TREELATTICE_XML_PARSER_H_

#include <string>
#include <string_view>

#include "util/result.h"
#include "xml/document.h"

namespace treelattice {

/// Options controlling the structural XML parse.
struct XmlParseOptions {
  /// If true, each attribute `name="v"` becomes a child node labeled
  /// "@name" (the paper models attribute names as interior labels; values
  /// are never modeled).
  bool model_attributes = false;

  /// If true, each contiguous non-whitespace text run becomes a synthetic
  /// leaf child labeled "=<bucket>" (see xml/value_buckets.h), enabling
  /// twig queries with value predicates. Off by default, matching the
  /// paper's value-free model.
  bool model_values = false;

  /// Bucket count for model_values. Must match the bucket count used when
  /// compiling value-predicate queries.
  int value_buckets = 64;
};

/// Parses an XML document's element structure into a labeled tree, whose
/// labels are interned into a dictionary of its own.
///
/// This is a from-scratch non-validating parser covering the subset needed
/// for dataset ingestion: prolog, comments, DOCTYPE (skipped), CDATA
/// (skipped), processing instructions (skipped), elements with attributes,
/// and character data (ignored — values are not modeled). Entity references
/// inside text are ignored along with the text. Returns ParseError with a
/// byte offset on malformed input (mismatched/unterminated tags, garbage).
Result<Document> ParseXmlString(std::string_view xml,
                                const XmlParseOptions& options = {});

/// Reads and parses an XML file from disk.
Result<Document> ParseXmlFile(const std::string& path,
                              const XmlParseOptions& options = {});

}  // namespace treelattice

#endif  // TREELATTICE_XML_PARSER_H_
