#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace apgre {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw Error(std::string("json: value is not ") + want);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  // Integral values (counters, schema versions) print without a fraction;
  // 2^53 bounds exact double integers.
  if (std::floor(d) == d && std::abs(d) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(d));
    out += buffer;
  } else {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", d);
    out += buffer;
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("json", line_, what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected `") + c + "`");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      // The parser recurses once per level; a bound keeps hostile input
      // from overflowing the stack.
      if (depth_ == JsonValue::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth) +
             " levels");
      }
      ++depth_;
      JsonValue value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue(nullptr);
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(object));
      if (c != ',') fail("expected `,` or `}` in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(array));
      if (c != ',') fail("expected `,` or `]` in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') fail("raw newline in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for these artifacts; encode the raw value).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      if (consumed != token.size() || !std::isfinite(value)) {
        fail("malformed number `" + token + "`");
      }
      return JsonValue(value);
    } catch (const std::logic_error&) {
      fail("malformed number `" + token + "`");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  int depth_ = 0;  ///< enclosing arrays and objects
};

void dump_value(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    append_number(out, value.as_double());
  } else if (value.is_string()) {
    append_escaped(out, value.as_string());
  } else if (value.is_array()) {
    const auto& array = value.as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const JsonValue& element : array) {
      if (!first) out += ',';
      first = false;
      dump_value(element, out);
    }
    out += ']';
  } else {
    const auto& object = value.as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, element] : object) {
      if (!first) out += ',';
      first = false;
      append_escaped(out, key);
      out += ':';
      dump_value(element, out);
    }
    out += '}';
  }
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_double() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

JsonValue::Array& JsonValue::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

JsonValue::Object& JsonValue::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

bool JsonValue::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) throw Error("json: missing key `" + key + "`");
  return it->second;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

void JsonValue::push_back(JsonValue element) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(element));
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace apgre
