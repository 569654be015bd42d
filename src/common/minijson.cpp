#include "common/minijson.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wsr::json {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("invalid literal");
    pos += word.size();
    return true;
  }

  /// Appends `cp` to `out` as UTF-8. \uXXXX escapes outside the BMP arrive
  /// as surrogate pairs, which we combine when both halves are present.
  static void append_utf8(std::string& out, u32 cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  bool hex4(u32* out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    u32 v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<u32>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<u32>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<u32>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    pos += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          u32 cp = 0;
          if (!hex4(&cp)) return false;
          // Combine a high surrogate with an immediately following \uXXXX
          // low surrogate; lone surrogates degrade to U+FFFD.
          if (cp >= 0xd800 && cp <= 0xdbff && pos + 1 < text.size() &&
              text[pos] == '\\' && text[pos + 1] == 'u') {
            const std::size_t saved = pos;
            pos += 2;
            u32 lo = 0;
            if (!hex4(&lo)) return false;
            if (lo >= 0xdc00 && lo <= 0xdfff) {
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else {
              pos = saved;
              cp = 0xfffd;
            }
          } else if (cp >= 0xd800 && cp <= 0xdfff) {
            cp = 0xfffd;
          }
          append_utf8(*out, cp);
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos;
    if (consume('-')) {}
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return fail("expected value");
    const std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size() || !std::isfinite(v)) {
      pos = start;
      return fail("invalid number");
    }
    out->type = Value::Type::Number;
    out->number = v;
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("expected value");
    switch (text[pos]) {
      case 'n': out->type = Value::Type::Null; return literal("null");
      case 't':
        out->type = Value::Type::Bool;
        out->boolean = true;
        return literal("true");
      case 'f':
        out->type = Value::Type::Bool;
        out->boolean = false;
        return literal("false");
      case '"':
        out->type = Value::Type::String;
        return parse_string(&out->string);
      case '{': {
        ++pos;
        out->type = Value::Type::Object;
        skip_ws();
        if (consume('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (!consume(':')) return fail("expected ':'");
          Value member;
          if (!parse_value(&member, depth + 1)) return false;
          out->object.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (consume(',')) continue;
          if (consume('}')) return true;
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        out->type = Value::Type::Array;
        skip_ws();
        if (consume(']')) return true;
        while (true) {
          Value element;
          if (!parse_value(&element, depth + 1)) return false;
          out->array.push_back(std::move(element));
          skip_ws();
          if (consume(',')) continue;
          if (consume(']')) return true;
          return fail("expected ',' or ']'");
        }
      }
      default: return parse_number(out);
    }
  }
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::get_string(std::string_view key,
                              const std::string& fallback) const {
  const Value* v = get(key);
  return (v != nullptr && v->type == Type::String) ? v->string : fallback;
}

std::optional<u64> Value::get_uint(std::string_view key) const {
  const Value* v = get(key);
  if (v == nullptr || v->type != Type::Number) return std::nullopt;
  if (v->number < 0 || v->number != std::floor(v->number) ||
      v->number > 18446744073709549568.0) {  // largest double < 2^64
    return std::nullopt;
  }
  return static_cast<u64>(v->number);
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text};
  Value v;
  if (!p.parse_value(&v, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing garbage");
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  return v;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace wsr::json
