#ifndef TREELATTICE_UTIL_JSON_H_
#define TREELATTICE_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace treelattice {

/// Minimal streaming JSON writer: explicit Begin/End calls with automatic
/// comma placement. Produces compact (no whitespace) RFC 8259 output.
/// Non-finite doubles are emitted as null (JSON has no NaN/Inf); finite
/// ones render with the bytes of printf's "%.17g", integers with those of
/// std::to_string.
class JsonWriter {
 public:
  /// Writes into the writer's own string (str(), TakeString()).
  JsonWriter() = default;
  /// Appends to `*out`, which must outlive the writer; str() and
  /// TakeString() then refer to it.
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value (or
  /// Begin*). Only valid directly inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Splices pre-serialized JSON in as one value. The caller vouches that
  /// `json` is itself well-formed (e.g. another writer's str()).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return *out_; }
  std::string TakeString() { return std::move(*out_); }

  /// Appends a JSON-escaped, quoted copy of `value` to `*out`.
  static void AppendEscaped(std::string_view value, std::string* out);

 private:
  void MaybeComma();

  std::string own_;
  std::string* out_ = &own_;
  // One entry per open scope: true until the first element is written.
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

/// A parsed JSON value (null, bool, number, string, array, or object).
/// Object member order is preserved. Intended for tests and tools that
/// validate TreeLattice's machine-readable output — small inputs, clarity
/// over speed.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  /// Set for a number written as a plain integer literal (digits only: no
  /// sign, fraction or exponent) that fits 64 bits; `uint_value` then holds
  /// it exactly, where `number_value` may have rounded it.
  bool has_uint = false;
  uint64_t uint_value = 0;
  /// Set for a number whose literal, read exactly on its decimal digits, is
  /// a non-negative integer, whatever its form: 4, 4.0, 4e0 and 0.4e1 set
  /// it; 4.5, 1.00000000000000000001 and -4 do not. A fraction or exponent
  /// form reads only through `number_value`, which is exact up to 2^53.
  bool integral = false;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses `text` as a single JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Returns InvalidArgument with an offset on
/// malformed input.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace treelattice

#endif  // TREELATTICE_UTIL_JSON_H_
