#include "xml/parser.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/string_util.h"
#include "xml/value_buckets.h"

namespace treelattice {

namespace {

/// Cursor-based scanner over the raw XML bytes.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }
  char Peek() const { return text_[pos_]; }
  char PeekAt(size_t ahead) const {
    size_t i = pos_ + ahead;
    return i < text_.size() ? text_[i] : '\0';
  }
  void Advance(size_t n = 1) { pos_ += n; }

  bool Match(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  /// Advances past everything up to and including `terminator`; false if
  /// the terminator never appears.
  bool SkipUntil(std::string_view terminator) {
    size_t found = text_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      pos_ = text_.size();
      return false;
    }
    pos_ = found + terminator.size();
    return true;
  }

  /// Scans an XML name (tag or attribute). Empty result means no name.
  std::string_view ScanName() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      bool name_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                       c == '.' || c == ':';
      if (!name_char) break;
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ErrorAt(const Scanner& scanner, std::string what) {
  return Status::ParseError(what + " at byte offset " +
                            std::to_string(scanner.pos()));
}

/// Parses the attribute list of a start tag; returns attribute names in
/// document order. Stops before '>' or '/>'.
Status ParseAttributes(Scanner& scanner, std::vector<std::string>* names) {
  while (true) {
    scanner.SkipWhitespace();
    if (scanner.AtEnd()) return ErrorAt(scanner, "unterminated start tag");
    char c = scanner.Peek();
    if (c == '>' || c == '/' || c == '?') return Status::OK();
    std::string_view name = scanner.ScanName();
    if (name.empty()) return ErrorAt(scanner, "expected attribute name");
    scanner.SkipWhitespace();
    if (scanner.AtEnd() || scanner.Peek() != '=') {
      return ErrorAt(scanner, "expected '=' after attribute name");
    }
    scanner.Advance();
    scanner.SkipWhitespace();
    if (scanner.AtEnd()) return ErrorAt(scanner, "unterminated attribute");
    char quote = scanner.Peek();
    if (quote != '"' && quote != '\'') {
      return ErrorAt(scanner, "expected quoted attribute value");
    }
    scanner.Advance();
    if (!scanner.SkipUntil(std::string_view(&quote, 1))) {
      return ErrorAt(scanner, "unterminated attribute value");
    }
    names->emplace_back(name);
  }
}

}  // namespace

Result<Document> ParseXmlString(std::string_view xml,
                                const XmlParseOptions& options) {
  Document doc;
  Scanner scanner(xml);
  std::vector<NodeId> stack;           // open elements
  std::vector<std::string> open_tags;  // their tag names, for matching

  while (true) {
    scanner.SkipWhitespace();
    if (scanner.AtEnd()) break;
    if (scanner.Peek() != '<') {
      // Character data. Must be inside an element; by default ignored
      // (values are not modeled), optionally bucketed into a synthetic
      // value leaf.
      if (stack.empty() && !doc.empty()) {
        return ErrorAt(scanner, "text outside of root element");
      }
      if (stack.empty()) {
        return ErrorAt(scanner, "text before root element");
      }
      size_t text_start = scanner.pos();
      while (!scanner.AtEnd() && scanner.Peek() != '<') scanner.Advance();
      if (options.model_values) {
        std::string_view text =
            TrimWhitespace(xml.substr(text_start, scanner.pos() - text_start));
        if (!text.empty()) {
          doc.AddNode(ValueBucketLabel(text, options.value_buckets),
                      stack.back());
        }
      }
      continue;
    }
    // '<' seen.
    if (scanner.Match("<?")) {
      if (!scanner.SkipUntil("?>")) {
        return ErrorAt(scanner, "unterminated processing instruction");
      }
      continue;
    }
    if (scanner.Match("<!--")) {
      if (!scanner.SkipUntil("-->")) {
        return ErrorAt(scanner, "unterminated comment");
      }
      continue;
    }
    if (scanner.Match("<![CDATA[")) {
      if (!scanner.SkipUntil("]]>")) {
        return ErrorAt(scanner, "unterminated CDATA section");
      }
      continue;
    }
    if (scanner.Match("<!")) {
      // DOCTYPE or similar declaration; skip to the matching '>'.
      // (Internal DTD subsets with nested '>' are not supported.)
      if (!scanner.SkipUntil(">")) {
        return ErrorAt(scanner, "unterminated markup declaration");
      }
      continue;
    }
    if (scanner.Match("</")) {
      std::string_view name = scanner.ScanName();
      scanner.SkipWhitespace();
      if (!scanner.Match(">")) {
        return ErrorAt(scanner, "malformed end tag");
      }
      if (stack.empty()) {
        return ErrorAt(scanner, "end tag with no open element");
      }
      if (open_tags.back() != name) {
        return ErrorAt(scanner, "mismatched end tag </" + std::string(name) +
                                    ">, expected </" + open_tags.back() + ">");
      }
      stack.pop_back();
      open_tags.pop_back();
      continue;
    }
    // Start tag.
    scanner.Advance();  // consume '<'
    std::string_view name = scanner.ScanName();
    if (name.empty()) return ErrorAt(scanner, "expected element name");
    if (stack.empty() && !doc.empty()) {
      return ErrorAt(scanner, "multiple root elements");
    }
    NodeId parent = stack.empty() ? kInvalidNode : stack.back();
    NodeId node = doc.AddNode(name, parent);

    std::vector<std::string> attr_names;
    Status attr_status = ParseAttributes(scanner, &attr_names);
    if (!attr_status.ok()) return attr_status;
    if (options.model_attributes) {
      for (const std::string& attr : attr_names) {
        doc.AddNode("@" + attr, node);
      }
    }
    scanner.SkipWhitespace();
    if (scanner.Match("/>")) continue;  // empty element
    if (!scanner.Match(">")) {
      return ErrorAt(scanner, "malformed start tag");
    }
    stack.push_back(node);
    open_tags.emplace_back(name);
  }

  if (!stack.empty()) {
    return Status::ParseError("unclosed element <" + open_tags.back() +
                              "> at end of input");
  }
  if (doc.empty()) {
    return Status::ParseError("no root element found");
  }
  Status valid = doc.Validate();
  if (!valid.ok()) return valid;
  return doc;
}

Result<Document> ParseXmlFile(const std::string& path,
                              const XmlParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on " + path);
  std::string contents = buffer.str();
  return ParseXmlString(contents, options);
}

}  // namespace treelattice
