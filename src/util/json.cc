#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace treelattice {

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::AppendEscaped(std::string_view value, std::string* out) {
  out->push_back('"');
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < value.size(); ++i) {
    const auto c = static_cast<unsigned char>(value[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(value.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out->append("\\u00");
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
      }
    }
  }
  out->append(value.data() + run, value.size() - run);
  out->push_back('"');
}

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes the "key": pair; no comma in between
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) out_->push_back(',');
    first_in_scope_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_->push_back('{');
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_->push_back('}');
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_->push_back('[');
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_->push_back(']');
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  AppendEscaped(key, out_);
  out_->push_back(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  AppendEscaped(value, out_);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  MaybeComma();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_->append(json);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_->append("null");
    return *this;
  }
  // 17 significant digits round-trip every double. to_chars in "general"
  // form at that precision is specified to give printf's "%.17g" bytes,
  // without printf's format parsing and locale lookup.
  char buf[32];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                  std::chars_format::general, 17)
                        .ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_->append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_->append("null");
  return *this;
}

// ---------------------------------------------------------------------------
// Parser

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    TL_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseLiteral(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error("unexpected character");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      TL_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      TL_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      TL_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          TL_RETURN_IF_ERROR(ParseHex4(&code));
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseHex4(unsigned* out) {
    if (text_.size() - pos_ < 4) return Error("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    *out = code;
    return Status::OK();
  }

  /// Encodes a BMP code point as UTF-8 (surrogate halves pass through as
  /// individual code units; our own writer never emits them).
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseLiteral(JsonValue* out) {
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    return Error("bad literal");
  }

  /// Consumes a run of digits; returns it (empty when none).
  std::string_view Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    const bool negative = Consume('-');
    const std::string_view whole = Digits();
    if (whole.empty()) return Error("bad number");
    std::string_view fraction;
    if (Consume('.')) {
      fraction = Digits();
      if (fraction.empty()) return Error("bad fraction");
    }
    int64_t exponent = 0;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      const bool exponent_negative = Consume('-');
      if (!exponent_negative) Consume('+');
      const std::string_view digits = Digits();
      if (digits.empty()) return Error("bad exponent");
      // Once the exponent exceeds the text's length the point lies past
      // every digit, as for any larger one, so its magnitude stops there.
      for (char d : digits) {
        if (exponent <= static_cast<int64_t>(text_.size())) {
          exponent = exponent * 10 + (d - '0');
        }
      }
      if (exponent_negative) exponent = -exponent;
    }
    out->type = JsonValue::Type::kNumber;
    // The exact value is the digits of `whole` and `fraction` with the
    // decimal point after the first whole.size() + exponent of them: an
    // integer when no nonzero digit lies past that point.
    const int64_t point = static_cast<int64_t>(whole.size()) + exponent;
    bool zero = true;
    bool integral = true;
    for (size_t i = 0; i < whole.size() + fraction.size(); ++i) {
      const char d = i < whole.size() ? whole[i] : fraction[i - whole.size()];
      if (d == '0') continue;
      zero = false;
      if (static_cast<int64_t>(i) >= point) integral = false;
    }
    out->integral = integral && (!negative || zero);
    const std::string_view literal = text_.substr(start, pos_ - start);
    if (literal.find_first_not_of("0123456789") == std::string_view::npos) {
      // A plain integer literal also reads exactly; a value of 2^64 or more
      // leaves has_uint unset.
      const std::from_chars_result exact = std::from_chars(
          literal.data(), literal.data() + literal.size(), out->uint_value);
      out->has_uint = exact.ec == std::errc();
    }
    out->number_value = std::strtod(std::string(literal).c_str(), nullptr);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace treelattice
