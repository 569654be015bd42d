// Tests of the serving layer's JSON helpers (common/minijson.hpp): the
// request grammar wsrd accepts, escape handling in both directions, and
// rejection of the malformed input a public socket will inevitably receive.
#include "common/minijson.hpp"

#include <gtest/gtest.h>

namespace wsr::json {
namespace {

Value parse_ok(const std::string& text) {
  std::string error;
  const auto v = parse(text, &error);
  EXPECT_TRUE(v.has_value()) << text << " -> " << error;
  return v.value_or(Value{});
}

std::string parse_err(const std::string& text) {
  std::string error;
  const auto v = parse(text, &error);
  EXPECT_FALSE(v.has_value()) << "accepted: " << text;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(MiniJson, ParsesTheWsrdRequestShape) {
  const Value v = parse_ok(
      R"({"collective":"reduce","grid":"64x64","bytes":4096,)"
      R"("algorithm":"Chain","tr":2,"id":7})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("collective"), "reduce");
  EXPECT_EQ(v.get_string("grid"), "64x64");
  EXPECT_EQ(v.get_uint("bytes"), 4096u);
  EXPECT_EQ(v.get_uint("tr"), 2u);
  EXPECT_EQ(v.get_uint("id"), 7u);
  EXPECT_EQ(v.get_string("algorithm"), "Chain");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
}

TEST(MiniJson, ParsesNestedObjectsAndArrays) {
  const Value v = parse_ok(
      R"({"grid":{"width":16,"height":8},"list":[1,2.5,-3,true,false,null]})");
  const Value* grid = v.get("grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->get_uint("width"), 16u);
  EXPECT_EQ(grid->get_uint("height"), 8u);
  const Value* list = v.get("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 6u);
  EXPECT_EQ(list->array[0].number, 1.0);
  EXPECT_EQ(list->array[1].number, 2.5);
  EXPECT_EQ(list->array[2].number, -3.0);
  EXPECT_TRUE(list->array[3].boolean);
  EXPECT_FALSE(list->array[4].boolean);
  EXPECT_TRUE(list->array[5].is_null());
}

TEST(MiniJson, StringEscapes) {
  const Value v = parse_ok(R"({"s":"a\"b\\c\/d\n\tAé"})");
  EXPECT_EQ(v.get_string("s"), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(MiniJson, EscapeControlAndQuotes) {
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(escape(std::string("\x01", 1)), "\\u0001");
}

// Whatever bytes go in, the escaped text parses back to exactly them.
TEST(MiniJson, EscapeRoundTripsThroughParse) {
  std::string all;
  for (int c = 1; c < 128; ++c) all.push_back(static_cast<char>(c));
  const std::string quoted = "\"" + escape(all) + "\"";
  EXPECT_EQ(quoted.find('\n'), std::string::npos);
  EXPECT_EQ(parse_ok(quoted).string, all);
}

TEST(MiniJson, AppendIntWritesDecimalText) {
  std::string out = "x";
  append_int(out, u32{0});
  out += ',';
  append_int(out, u32{4294967295u});
  out += ',';
  append_int(out, i64{-42});
  out += ',';
  append_int(out, u8{255});
  EXPECT_EQ(out, "x0,4294967295,-42,255");
}

TEST(MiniJson, SurrogatePairsAndLoneSurrogates) {
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("😀")").string, "\xf0\x9f\x98\x80");
  // A lone high surrogate degrades to U+FFFD instead of corrupting output.
  EXPECT_EQ(parse_ok(R"("\ud83d!")").string, "\xef\xbf\xbd!");
}

TEST(MiniJson, GetUintRejectsNonRepresentableNumbers) {
  const Value v = parse_ok(R"({"neg":-1,"frac":1.5,"big":1e30,"str":"7"})");
  EXPECT_EQ(v.get_uint("neg"), std::nullopt);
  EXPECT_EQ(v.get_uint("frac"), std::nullopt);
  EXPECT_EQ(v.get_uint("big"), std::nullopt);
  EXPECT_EQ(v.get_uint("str"), std::nullopt);  // no silent coercion
}

TEST(MiniJson, WhitespaceAndEmptyContainers) {
  const Value v = parse_ok(" \t\r\n { \"a\" : [ ] , \"b\" : { } } \n");
  ASSERT_NE(v.get("a"), nullptr);
  EXPECT_TRUE(v.get("a")->array.empty());
  ASSERT_NE(v.get("b"), nullptr);
  EXPECT_TRUE(v.get("b")->is_object());
}

TEST(MiniJson, RejectsMalformedInput) {
  parse_err("");
  parse_err("{");
  parse_err(R"({"a":})");
  parse_err(R"({"a":1,})");
  parse_err(R"({'a':1})");
  parse_err(R"({"a" 1})");
  parse_err(R"("unterminated)");
  parse_err(R"("bad \x escape")");
  parse_err(R"("truncated \u00)");
  parse_err("[1,2");
  parse_err("01e");
  parse_err("nul");
  parse_err("{} trailing");
  parse_err("1 2");
  parse_err("\"ctrl\x01char\"");
}

std::string nested_arrays(int n) {
  std::string s(static_cast<std::size_t>(n), '[');
  s += "1";
  s.append(static_cast<std::size_t>(n), ']');
  return s;
}

std::string nested_objects(int n) {
  std::string s;
  for (int i = 0; i < n; ++i) s += "{\"a\":";
  s += "1";
  s.append(static_cast<std::size_t>(n), '}');
  return s;
}

TEST(MiniJson, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "[";
  const std::string error = parse_err(deep);
  EXPECT_NE(error.find("nesting"), std::string::npos);
  // A socket peer can also nest hostile objects, and truncation must not
  // matter: the parser rejects on depth before it ever misses the ']'s.
  EXPECT_NE(parse_err(nested_objects(2000)).find("nesting"),
            std::string::npos);
  std::string unterminated(2000, '[');
  EXPECT_NE(parse_err(unterminated).find("nesting"), std::string::npos);
}

TEST(MiniJson, DepthLimitBoundaryIsExact) {
  // kMaxDepth = 64: the innermost value parses at depth == array count, so
  // 64 wrappers are legal and the 65th is not. Deeply-nested-but-legal
  // input must round-trip — a limit that bites early would break real
  // (if eccentric) clients.
  parse_ok(nested_arrays(64));
  EXPECT_NE(parse_err(nested_arrays(65)).find("nesting"), std::string::npos);
  parse_ok(nested_objects(64));
  EXPECT_NE(parse_err(nested_objects(65)).find("nesting"), std::string::npos);
  // Mixed nesting counts every level the same way.
  std::string mixed;
  for (int i = 0; i < 32; ++i) mixed += "[{\"a\":";
  mixed += "null";
  for (int i = 0; i < 32; ++i) mixed += "}]";
  parse_ok(mixed);
}

}  // namespace
}  // namespace wsr::json
