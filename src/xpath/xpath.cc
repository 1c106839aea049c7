#include "xpath/xpath.h"

#include "util/string_util.h"
#include "xml/value_buckets.h"

namespace treelattice {

namespace {

/// Recursive-descent compiler over the XPath subset grammar.
class XPathCompiler {
 public:
  XPathCompiler(std::string_view text, LabelDict* dict, int value_buckets)
      : text_(text), dict_(dict), value_buckets_(value_buckets) {}

  Result<Twig> Compile() {
    SkipSpace();
    if (!AtEnd() && Peek() == '/') {
      Advance();
      if (!AtEnd() && Peek() == '/') {
        return Status::InvalidArgument(
            "descendant axis '//' is not supported: twig queries relate "
            "elements by parent-child edges only");
      }
    }
    Twig twig;
    TL_RETURN_IF_ERROR(ParsePath(&twig, -1, 0));
    SkipSpace();
    if (!AtEnd()) {
      return Status::InvalidArgument("trailing characters at offset " +
                                     std::to_string(pos_));
    }
    if (twig.empty()) {
      return Status::InvalidArgument("empty XPath expression");
    }
    // The depth Twig::Parse refuses, so both syntaxes accept the same
    // twigs. A node's parent precedes it.
    std::vector<int> depth(static_cast<size_t>(twig.size()), 0);
    for (int i = 1; i < twig.size(); ++i) {
      const int d = depth[static_cast<size_t>(twig.parent(i))] + 1;
      if (d > Twig::kMaxDepth) {
        return Status::InvalidArgument("twig nesting deeper than " +
                                       std::to_string(Twig::kMaxDepth));
      }
      depth[static_cast<size_t>(i)] = d;
    }
    return twig;
  }

 private:
  /// Bound on predicate nesting ("a[a[a[...]]]"). Far beyond any twig the
  /// paper's workloads use, but low enough that a hostile query cannot
  /// drive the recursive-descent compiler into stack overflow.
  static constexpr int kMaxPredicateDepth = 128;

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void Advance() { ++pos_; }
  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) ++pos_;
  }

  Result<std::string_view> ParseName() {
    SkipSpace();
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      bool name_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                       c == '.' || c == ':';
      if (!name_char) break;
      ++pos_;
    }
    if (pos_ == start) {
      if (!AtEnd() && Peek() == '*') {
        return Status::InvalidArgument("wildcard '*' is not supported");
      }
      if (!AtEnd() && Peek() == '@') {
        return Status::InvalidArgument(
            "attribute axis '@' is not supported (values are not modeled)");
      }
      return Status::InvalidArgument("expected element name at offset " +
                                     std::to_string(start));
    }
    return text_.substr(start, pos_ - start);
  }

  /// Parses `= "literal"` and attaches the bucketed value leaf to `node`.
  Status ParseValueTest(Twig* twig, int node) {
    Advance();  // '='
    SkipSpace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Status::InvalidArgument(
          "expected quoted literal after '=' at offset " +
          std::to_string(pos_));
    }
    char quote = Peek();
    Advance();
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) Advance();
    if (AtEnd()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    std::string_view literal = text_.substr(start, pos_ - start);
    Advance();  // closing quote
    twig->AddNode(dict_->Intern(ValueBucketLabel(literal, value_buckets_)),
                  node);
    SkipSpace();
    return Status::OK();
  }

  /// Parses `name pred* value-test? ('/' ...)*` attaching under `parent`.
  /// `depth` counts predicate nesting, the only source of recursion.
  Status ParsePath(Twig* twig, int parent, int depth) {
    if (depth > kMaxPredicateDepth) {
      return Status::InvalidArgument(
          "predicates nested deeper than " +
          std::to_string(kMaxPredicateDepth) + " at offset " +
          std::to_string(pos_));
    }
    while (true) {
      std::string_view name;
      TL_ASSIGN_OR_RETURN(name, ParseName());
      int node = twig->AddNode(dict_->Intern(name), parent);
      SkipSpace();
      while (!AtEnd() && Peek() == '[') {
        Advance();  // '['
        SkipSpace();
        if (!AtEnd() && (Peek() >= '0' && Peek() <= '9')) {
          return Status::InvalidArgument(
              "positional predicates are not supported");
        }
        if (!AtEnd() && Peek() == '.') {
          // [.="literal"] — value test on this step's node.
          Advance();  // '.'
          SkipSpace();
          if (AtEnd() || Peek() != '=') {
            return Status::InvalidArgument(
                "expected '=' after '.' in predicate");
          }
          TL_RETURN_IF_ERROR(ParseValueTest(twig, node));
        } else {
          TL_RETURN_IF_ERROR(ParsePath(twig, node, depth + 1));
        }
        SkipSpace();
        if (AtEnd() || Peek() != ']') {
          return Status::InvalidArgument("unterminated predicate '['");
        }
        Advance();  // ']'
        SkipSpace();
      }
      if (!AtEnd() && Peek() == '=') {
        // step="literal" — value test on this step's node.
        TL_RETURN_IF_ERROR(ParseValueTest(twig, node));
      }
      if (AtEnd() || Peek() != '/') return Status::OK();
      Advance();  // '/'
      if (!AtEnd() && Peek() == '/') {
        return Status::InvalidArgument(
            "descendant axis '//' is not supported");
      }
      parent = node;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  LabelDict* dict_;
  int value_buckets_;
};

void RenderNode(const Twig& twig, const LabelDict& dict, int node,
                std::string* out) {
  // The path spine (first child) is iterated, not recursed: spine length
  // is unbounded ("a/a/a/..."), while predicate nesting — the only
  // recursion left — is bounded by the twig's branching depth.
  while (true) {
    out->append(dict.Name(twig.label(node)));
    const std::vector<int>& kids = twig.children(node);
    if (kids.empty()) return;
    for (size_t i = 1; i < kids.size(); ++i) {
      out->push_back('[');
      RenderNode(twig, dict, kids[i], out);
      out->push_back(']');
    }
    out->push_back('/');
    node = kids[0];
  }
}

}  // namespace

Result<Twig> CompileXPath(std::string_view xpath, LabelDict* dict) {
  return CompileXPath(xpath, dict, XPathOptions());
}

Result<Twig> CompileXPath(std::string_view xpath, LabelDict* dict,
                          const XPathOptions& options) {
  if (dict == nullptr) {
    return Status::InvalidArgument("CompileXPath: dict must not be null");
  }
  std::string_view trimmed = TrimWhitespace(xpath);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty XPath expression");
  }
  XPathCompiler compiler(trimmed, dict, options.value_buckets);
  return compiler.Compile();
}

Result<Twig> CompileQuery(std::string_view text, LabelDict* dict) {
  Result<Twig> twig = text.find_first_of("/[") != std::string_view::npos
                          ? CompileXPath(text, dict)
                          : Twig::Parse(text, dict);
  if (twig.ok() && twig->size() > Twig::kMaxQueryNodes) {
    return Status::InvalidArgument(
        "query has " + std::to_string(twig->size()) +
        " nodes; the limit is " + std::to_string(Twig::kMaxQueryNodes));
  }
  return twig;
}

std::string TwigToXPath(const Twig& twig, const LabelDict& dict) {
  if (twig.empty()) return std::string();
  std::string out = "/";
  RenderNode(twig, dict, twig.root(), &out);
  return out;
}

}  // namespace treelattice
