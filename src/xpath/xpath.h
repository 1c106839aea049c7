#ifndef TREELATTICE_XPATH_XPATH_H_
#define TREELATTICE_XPATH_XPATH_H_

#include <string>
#include <string_view>

#include "twig/twig.h"
#include "util/result.h"
#include "xml/label_dict.h"

namespace treelattice {

/// Options for XPath compilation.
struct XPathOptions {
  /// Value-bucket count for value predicates; must match the
  /// XmlParseOptions::value_buckets used when the document was parsed
  /// with model_values.
  int value_buckets = 64;
};

/// Compiles a practical XPath subset into a Twig query.
///
/// Supported grammar (child axis only — the paper's twig queries relate
/// elements by parent-child edges):
///
///   xpath      := '/'? step ('/' step)*
///   step       := name predicate* value-test?
///   predicate  := '[' '.' value-test ']' | '[' rel-path ']'
///   rel-path   := step ('/' step)*          (predicates nest)
///   value-test := '=' '"' literal '"'       (or single quotes)
///
/// Examples:
///   /site/open_auctions/open_auction[bidder/time][seller]
///   laptop[brand][price]
///   a/b[c[d]/e]
///   movie[genre="action"][year]            (value predicate)
///   movie[.="classic"]                     (value on the step itself)
///
/// A leading '/' is cosmetic: twig selectivity counts matches anywhere in
/// the document, exactly as Definition 1 does (use a root-anchored twig by
/// naming the document root as the first step). Value predicates compile
/// to synthetic "=<bucket>" leaf labels and require the document to have
/// been parsed with XmlParseOptions::model_values (see
/// xml/value_buckets.h). The descendant axis '//', wildcards, positional
/// predicates and attributes are rejected with InvalidArgument.
///
/// Labels are interned into `dict` so the twig is directly usable against
/// documents sharing that dictionary.
Result<Twig> CompileXPath(std::string_view xpath, LabelDict* dict);
Result<Twig> CompileXPath(std::string_view xpath, LabelDict* dict,
                          const XPathOptions& options);

/// Compiles a query in either syntax the tools accept: text containing
/// '/' or '[' is the XPath subset above, anything else the twig syntax
/// "a(b,c(d))" of Twig::Parse. `serve` and the CLI's `estimate` and
/// `truth` read every query through it, so it is the front door's size
/// check too: a twig of more than Twig::kMaxQueryNodes nodes is refused
/// with InvalidArgument naming the limit.
Result<Twig> CompileQuery(std::string_view text, LabelDict* dict);

/// Renders a twig back as an XPath expression (first-child spine becomes
/// the path; remaining children become predicates). Useful for reporting.
std::string TwigToXPath(const Twig& twig, const LabelDict& dict);

}  // namespace treelattice

#endif  // TREELATTICE_XPATH_XPATH_H_
