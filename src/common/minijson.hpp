// A minimal JSON reader for the serving layer, and the two text helpers its
// writers share.
//
// wsrd's request protocol is newline-delimited JSON objects (docs/serving.md),
// and the container ships no JSON library, so this is a small dependency-free
// recursive-descent parser: objects, arrays, strings (with escapes), numbers,
// booleans and null. It parses into an owned `Value` tree; it does not aim to
// be fast or incremental — requests are a few hundred bytes.
//
// Emission stays with its writers: responses are appended as text by
// runtime/plan_json.cpp (and wse/export.cpp for schedules). The two helpers
// they share live here: `append_int`, and `escape`, the only JSON string
// escaper, through which every string that did not come from this
// process's own code (record text, echoed request fields, error details)
// is written.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace wsr::json {

/// One parsed JSON value. Object members keep their source order (the
/// serving protocol never relies on it, but error messages read better).
struct Value {
  enum class Type : u8 { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::pair<std::string, Value>> object;
  std::vector<Value> array;

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_string() const { return type == Type::String; }
  bool is_number() const { return type == Type::Number; }

  /// Object member lookup; nullptr when absent or not an object. The first
  /// member wins if a key repeats.
  const Value* get(std::string_view key) const;

  /// The member as a string; `fallback` when absent. Non-string members do
  /// not coerce (callers validate types explicitly).
  std::string get_string(std::string_view key,
                         const std::string& fallback = "") const;

  /// The member as a non-negative integer; nullopt when absent, not a
  /// number, negative, fractional, or too large for u64.
  std::optional<u64> get_uint(std::string_view key) const;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed; trailing garbage is an error). On failure returns
/// nullopt and, when `error` is non-null, a one-line description with the
/// byte offset. Nesting is capped (64 levels) so hostile input cannot
/// overflow the stack.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// `s` as a JSON string body (without the quotes): `"` and `\` are
/// backslash-escaped, newline, carriage return and tab take their short
/// forms, and every other byte below 0x20 becomes \u00XX. Other bytes pass
/// through, so the result never holds a raw control byte or an unescaped
/// quote and cannot break an NDJSON line.
std::string escape(std::string_view s);

/// Appends the decimal text of `v` to `out`: std::to_chars, with no
/// stream, locale or temporary string.
template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace wsr::json
