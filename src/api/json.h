// Minimal JSON value model + recursive-descent parser for the fsr_serve
// wire protocol (one request object per input line).
//
// Scope: full JSON syntax (objects, arrays, strings with escapes, numbers,
// booleans, null) with object member ORDER PRESERVED; numbers are held as
// doubles plus the exact integer when the literal is integral, which is
// all the wire layer needs (ids, seeds, small budgets). Inputs are single
// request lines from untrusted clients: nesting is capped at
// kMaxNestingDepth (the parser recurses once per level), an object may not
// repeat a key, strings must be valid UTF-8 (a \u escape may not name a
// surrogate), and any violation or syntax error throws
// fsr::InvalidArgument with a byte offset so the front end answers the
// offending line in-band. Error messages never echo a raw non-ASCII or
// control byte (they print its hex code), so the error line a front end
// writes back is itself valid JSON.
//
// Rendering stays out of scope on purpose: responses are rendered by
// purpose-built writers (wire.cpp) because byte-stable output — field
// order, number formatting — is part of the service contract, and a
// generic value printer would make those choices implicit.
#ifndef FSR_API_JSON_H
#define FSR_API_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace fsr::api::json {

/// Deepest array/object nesting parse() accepts. Wire requests nest at
/// most four levels (an inline SPP's path list); the cap keeps a hostile
/// line of thousands of '[' from exhausting the stack.
inline constexpr int kMaxNestingDepth = 64;

class Value {
 public:
  enum class Type { null, boolean, number, string, array, object };

  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;

  Type type() const noexcept { return static_cast<Type>(data_.index()); }
  bool is_null() const noexcept { return type() == Type::null; }

  /// Typed getters throw fsr::InvalidArgument on a type mismatch, naming
  /// `where` (usually the field being read) in the message.
  bool as_bool(std::string_view where) const;
  double as_number(std::string_view where) const;
  /// The number as a non-negative integer; throws when the literal was
  /// fractional, negative, or not a number.
  std::uint64_t as_u64(std::string_view where) const;
  const std::string& as_string(std::string_view where) const;
  const Array& as_array(std::string_view where) const;
  const Object& as_object(std::string_view where) const;

  /// Object member lookup (parse() rejects duplicate keys); nullptr when
  /// absent or not an object.
  const Value* find(std::string_view key) const noexcept;

  // Construction is the parser's business; tests may use these directly.
  static Value make_null();
  static Value make_bool(bool value);
  static Value make_number(double value, bool integral, std::uint64_t integer);
  static Value make_string(std::string value);
  static Value make_array(Array items);
  static Value make_object(Object members);

 private:
  struct Number {
    double value = 0.0;
    std::uint64_t integer = 0;  // meaningful when integral
    bool integral = false;
  };
  friend class Parser;

  // Alternatives in Type order: type() is the active index.
  std::variant<std::monostate, bool, Number, std::string, Array, Object>
      data_;
};

/// Parses exactly one JSON value from `text` (surrounding whitespace
/// allowed, trailing garbage rejected). Throws fsr::InvalidArgument on any
/// syntax error, on nesting deeper than kMaxNestingDepth, and on a
/// duplicate key within one object.
Value parse(const std::string& text);

}  // namespace fsr::api::json

#endif  // FSR_API_JSON_H
