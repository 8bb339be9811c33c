#include "api/json.h"

#include <cstdlib>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "util/error.h"

namespace fsr::api::json {
namespace {

const char* type_name(Value::Type type) noexcept {
  switch (type) {
    case Value::Type::null:
      return "null";
    case Value::Type::boolean:
      return "boolean";
    case Value::Type::number:
      return "number";
    case Value::Type::string:
      return "string";
    case Value::Type::array:
      return "array";
    case Value::Type::object:
      return "object";
  }
  return "value";
}

[[noreturn]] void type_error(std::string_view where, const char* wanted,
                             Value::Type got) {
  throw InvalidArgument("json: " + std::string(where) + " must be a " +
                        wanted + ", not a " + type_name(got));
}

constexpr std::size_t kScannedKeys = 16;

/// `c` as an error message shows it: printable ASCII quoted, anything
/// else (control and non-ASCII bytes) as a hex code, so a message never
/// carries a raw byte that would break the JSON line it is answered in.
std::string shown(char c) {
  if (c >= 0x20 && c < 0x7f) return std::string("'") + c + "'";
  static const char* digits = "0123456789abcdef";
  const auto byte = static_cast<unsigned char>(c);
  return std::string("0x") + digits[byte >> 4] + digits[byte & 0xf];
}

/// Length of the well-formed UTF-8 sequence (RFC 3629: no overlong forms,
/// no surrogates, nothing past U+10FFFF) starting at text[at], whose lead
/// byte is >= 0x80; 0 when it is not one.
std::size_t utf8_sequence(const std::string& text, std::size_t at) {
  const auto byte = [&](std::size_t i) {
    return at + i < text.size() ? static_cast<unsigned char>(text[at + i])
                                : 0u;
  };
  const auto tail = [](unsigned b) { return (b & 0xc0) == 0x80; };
  const unsigned lead = byte(0);
  const unsigned second = byte(1);
  if (lead >= 0xc2 && lead <= 0xdf) return tail(second) ? 2 : 0;
  if (lead >= 0xe0 && lead <= 0xef) {
    const unsigned low = lead == 0xe0 ? 0xa0 : 0x80;   // overlong
    const unsigned high = lead == 0xed ? 0x9f : 0xbf;  // surrogates
    return second >= low && second <= high && tail(byte(2)) ? 3 : 0;
  }
  if (lead >= 0xf0 && lead <= 0xf4) {
    const unsigned low = lead == 0xf0 ? 0x90 : 0x80;   // overlong
    const unsigned high = lead == 0xf4 ? 0x8f : 0xbf;  // > U+10FFFF
    return second >= low && second <= high && tail(byte(2)) &&
                   tail(byte(3))
               ? 4
               : 0;
  }
  return 0;
}

}  // namespace

/// The recursive-descent parser; it builds every value in place, in the
/// slot its container (or the caller) already holds for it.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value value;
    parse_value(value);
    skip_whitespace();
    if (at_ != text_.size()) fail("trailing characters after the value");
    return value;
  }

 private:
  /// First capacity of a non-empty array or object: a wire edge has two
  /// nodes, a wire path a handful of hops, a wire object a handful of
  /// members.
  static constexpr std::size_t k_first_capacity = 4;

  [[noreturn]] void fail(const std::string& message) const {
    throw InvalidArgument("json: " + message + " at byte " +
                          std::to_string(at_));
  }

  void skip_whitespace() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  char peek() {
    if (at_ >= text_.size()) fail("unexpected end of input");
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found " + shown(text_[at_]));
    }
    ++at_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(at_, literal.size(), literal) != 0) return false;
    at_ += literal.size();
    return true;
  }

  void parse_value(Value& out) {
    skip_whitespace();
    const char c = peek();
    if (c == '"') {
      parse_string(out.data_.emplace<std::string>());
      return;
    }
    if (c == '{' || c == '[') {
      if (depth_ == kMaxNestingDepth) {
        fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
             " levels");
      }
      ++depth_;
      if (c == '{') {
        parse_object(out.data_.emplace<Value::Object>());
      } else {
        parse_array(out.data_.emplace<Value::Array>());
      }
      --depth_;
      return;
    }
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      out.data_ = true;
      return;
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      out.data_ = false;
      return;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return;  // `out` is a fresh null
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out.data_ = parse_number();
      return;
    }
    fail("unexpected character " + shown(c));
  }

  void parse_object(Value::Object& members) {
    expect('{');
    std::unordered_set<std::string> keys;  // filled past kScannedKeys only
    skip_whitespace();
    if (peek() == '}') {
      ++at_;
      return;
    }
    members.reserve(k_first_capacity);
    while (true) {
      skip_whitespace();
      std::string key;
      parse_string(key);
      // Wire objects hold a handful of keys, so a scan finds a repeat; past
      // kScannedKeys a hash set keeps a line of many keys from going
      // quadratic.
      bool repeated = false;
      if (members.size() < kScannedKeys) {
        for (const auto& member : members) {
          repeated = repeated || member.first == key;
        }
      } else {
        if (keys.empty()) {
          for (const auto& member : members) keys.insert(member.first);
        }
        repeated = !keys.insert(key).second;
      }
      if (repeated) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':');
      parse_value(members
                      .emplace_back(std::piecewise_construct,
                                    std::forward_as_tuple(std::move(key)),
                                    std::forward_as_tuple())
                      .second);
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == '}') {
        ++at_;
        return;
      }
      fail("expected ',' or '}' in object");
    }
  }

  void parse_array(Value::Array& items) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++at_;
      return;
    }
    items.reserve(k_first_capacity);
    while (true) {
      parse_value(items.emplace_back());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == ']') {
        ++at_;
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  /// Appends the string literal at the cursor, unescaped, to `out`.
  void parse_string(std::string& out) {
    expect('"');
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash,
      // control or non-ASCII byte in one append.
      const std::size_t run = at_;
      while (at_ < text_.size()) {
        const auto b = static_cast<unsigned char>(text_[at_]);
        if (b == '"' || b == '\\' || b < 0x20 || b >= 0x80) break;
        ++at_;
      }
      out.append(text_.data() + run, at_ - run);
      if (at_ >= text_.size()) fail("unterminated string");
      const char c = text_[at_];
      if (static_cast<unsigned char>(c) >= 0x80) {
        const std::size_t length = utf8_sequence(text_, at_);
        if (length == 0) fail("invalid UTF-8 in string");
        out.append(text_.data() + at_, length);
        at_ += length;
        continue;
      }
      ++at_;
      if (c == '"') return;
      if (c != '\\') fail("raw control character in string");
      if (at_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[at_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (at_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point. Surrogate pairs are not worth
          // supporting for this wire format's node names, and a lone
          // surrogate has no UTF-8 encoding at all.
          if (code >= 0xd800 && code <= 0xdfff) {
            fail("\\u escape names a UTF-16 surrogate");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value::Number parse_number() {
    const std::size_t start = at_;
    bool integral = true;
    if (peek() == '-') ++at_;
    while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') ++at_;
    if (at_ < text_.size() && text_[at_] == '.') {
      integral = false;
      ++at_;
      while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') {
        ++at_;
      }
    }
    if (at_ < text_.size() && (text_[at_] == 'e' || text_[at_] == 'E')) {
      integral = false;
      ++at_;
      if (at_ < text_.size() && (text_[at_] == '+' || text_[at_] == '-')) {
        ++at_;
      }
      while (at_ < text_.size() && text_[at_] >= '0' && text_[at_] <= '9') {
        ++at_;
      }
    }
    const std::size_t length = at_ - start;
    if (length == 0 || (length == 1 && text_[start] == '-')) {
      fail("bad number");
    }
    // strtod/strtoull read the literal in place: the byte after it cannot
    // extend a decimal number, and one that starts a hex form ("0x...")
    // fails the parse right after.
    const char* literal = text_.c_str() + start;
    const double value = std::strtod(literal, nullptr);
    std::uint64_t integer = 0;
    if (integral && *literal != '-') {
      integer = std::strtoull(literal, nullptr, 10);
    } else if (integral) {
      integral = false;  // negative integers: callers only take u64
    }
    return Value::Number{value, integer, integral};
  }

  const std::string& text_;
  std::size_t at_ = 0;
  int depth_ = 0;
};

bool Value::as_bool(std::string_view where) const {
  if (type() != Type::boolean) type_error(where, "boolean", type());
  return std::get<bool>(data_);
}

double Value::as_number(std::string_view where) const {
  if (type() != Type::number) type_error(where, "number", type());
  return std::get<Number>(data_).value;
}

std::uint64_t Value::as_u64(std::string_view where) const {
  const Number* number = std::get_if<Number>(&data_);
  if (number == nullptr || !number->integral) {
    type_error(where, "non-negative integer", type());
  }
  return number->integer;
}

const std::string& Value::as_string(std::string_view where) const {
  if (type() != Type::string) type_error(where, "string", type());
  return std::get<std::string>(data_);
}

const Value::Array& Value::as_array(std::string_view where) const {
  if (type() != Type::array) type_error(where, "array", type());
  return std::get<Array>(data_);
}

const Value::Object& Value::as_object(std::string_view where) const {
  if (type() != Type::object) type_error(where, "object", type());
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const noexcept {
  const Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Value Value::make_null() { return Value(); }

Value Value::make_bool(bool value) {
  Value out;
  out.data_ = value;
  return out;
}

Value Value::make_number(double value, bool integral, std::uint64_t integer) {
  Value out;
  out.data_ = Number{value, integer, integral};
  return out;
}

Value Value::make_string(std::string value) {
  Value out;
  out.data_ = std::move(value);
  return out;
}

Value Value::make_array(Array items) {
  Value out;
  out.data_ = std::move(items);
  return out;
}

Value Value::make_object(Object members) {
  Value out;
  out.data_ = std::move(members);
  return out;
}

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace fsr::api::json
