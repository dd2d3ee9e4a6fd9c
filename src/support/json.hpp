// Minimal JSON value with a parser and serializer, for apgre_serve's line
// protocol. Covers the subset it uses — null, bool, finite numbers, strings
// with standard escapes (incl. \uXXXX input), arrays, objects — not a
// general JSON library. Objects are std::map, so serialization is
// deterministic (key-sorted), which keeps replies byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace apgre {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : value_(static_cast<double>(u)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw Error on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object field access. at() throws Error when absent. operator[]
  /// inserts (converting null to an object first), for building documents.
  bool contains(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;
  JsonValue& operator[](const std::string& key);

  /// Array append (converting null to an array first).
  void push_back(JsonValue element);

  /// Serialize compactly, on one line.
  std::string dump() const;

  /// Deepest nesting of arrays and objects parse() accepts.
  static constexpr int kMaxDepth = 64;

  /// Parse a complete document; trailing non-whitespace, malformed input or
  /// nesting deeper than kMaxDepth throws ParseError with a line number.
  static JsonValue parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace apgre
