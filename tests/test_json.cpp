// common/json: the program's one JSON escaper and strict pull reader.
// Every artifact reader (journal lines, serve frames, BENCH_psync.json,
// compile_commands.json) sits on top of these guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "psync/common/json.hpp"

namespace psync {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Decode one complete string literal; "" plus a test failure otherwise.
std::string decode(const std::string& literal) {
  JsonReader r(literal);
  std::string out;
  EXPECT_TRUE(r.string(&out) && r.at_end())
      << literal << ": " << r.error() << " at " << r.error_offset();
  return out;
}

/// The writer's escape of `raw` is `escaped`, and the reader undoes it.
void expect_round_trip(const std::string& raw, const std::string& escaped) {
  EXPECT_EQ(json_escape(raw), escaped);
  EXPECT_EQ(json_string(raw), "\"" + escaped + "\"");
  EXPECT_EQ(decode(json_string(raw)), raw) << escaped;
}

bool rejects_string(const std::string& literal) {
  JsonReader r(literal);
  std::string out;
  return !r.string(&out);
}

bool rejects_number(const char* text) {
  JsonReader r(text);
  double v = 0.0;
  return !(r.number(&v) && r.at_end());
}

bool rejects_value(const char* text) {
  JsonReader r(text);
  return !(r.skip_value() && r.at_end());
}

/// `text` reads as exactly the u64 `want`.
void expect_u64(const char* text, std::uint64_t want) {
  JsonReader r(text);
  std::uint64_t v = 0;
  EXPECT_TRUE(r.u64(&v) && r.at_end()) << text << ": " << r.error();
  EXPECT_EQ(v, want) << text;
}

bool rejects_u64(const char* text) {
  JsonReader r(text);
  std::uint64_t v = 0;
  return !(r.u64(&v) && r.at_end());
}

/// `v` written by %.17g reads back to its own bits; written by %.6f and by
/// an iostream at precision 12 it reads back to what the C library reads
/// from the same token (correct rounding). NaN keeps its sign.
void expect_reads_back(double v) {
  char g17[64];
  std::snprintf(g17, sizeof(g17), "%.17g", v);
  char f6[400];
  std::snprintf(f6, sizeof(f6), "%.6f", v);
  std::ostringstream p12;
  p12.precision(12);
  p12 << v;
  const std::string tokens[] = {g17, f6, p12.str()};
  for (const std::string& token : tokens) {
    JsonReader r(token);
    double got = 0.0;
    ASSERT_TRUE(r.number(&got) && r.at_end()) << token << ": " << r.error();
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got)) << token;
      EXPECT_EQ(std::signbit(got), std::signbit(v)) << token;
    } else {
      EXPECT_EQ(bits(got), bits(std::strtod(token.c_str(), nullptr)))
          << token;
    }
  }
  if (!std::isnan(v)) {
    JsonReader r(g17);
    double got = 0.0;
    ASSERT_TRUE(r.number(&got));
    EXPECT_EQ(bits(got), bits(v)) << g17 << " must round-trip exactly";
  }
}

/// skip_value + at_end on `text` fails, and the failure names `offset`.
void expect_error_at(const char* text, std::size_t offset) {
  JsonReader r(text);
  EXPECT_FALSE(r.skip_value() && r.at_end()) << text;
  EXPECT_EQ(r.error_offset(), offset) << text << ": " << r.error();
  EXPECT_STRNE(r.error(), "") << text;
}

TEST(JsonEscape, EveryEscapeTheWriterEmitsRoundTrips) {
  expect_round_trip("plain text", "plain text");
  expect_round_trip("\"", "\\\"");
  expect_round_trip("\\", "\\\\");
  expect_round_trip("\n", "\\n");
  expect_round_trip("\r", "\\r");
  expect_round_trip("\t", "\\t");
  expect_round_trip(std::string(1, '\0'), "\\u0000");
  expect_round_trip("\x01", "\\u0001");
  expect_round_trip("\b", "\\u0008");
  expect_round_trip("\f", "\\u000c");
  expect_round_trip("\x1f", "\\u001f");
  expect_round_trip("a}\"b{", "a}\\\"b{");
  // DEL is not a control byte, and UTF-8 passes through untouched.
  expect_round_trip("\x7f", "\x7f");
  expect_round_trip("caf\xc3\xa9", "caf\xc3\xa9");
  // Every byte value survives escape + decode.
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  EXPECT_EQ(decode(json_string(all)), all);
}

TEST(JsonReader, DecodesTheRemainingEscapesAndUnicode) {
  EXPECT_EQ(decode(R"("\/\b\f")"), "/\b\f");
  EXPECT_EQ(decode(R"("a\tb\u0041")"), "a\tbA");
  // BMP points of two and three UTF-8 bytes, hex digits in either case.
  EXPECT_EQ(decode(R"("\u00e9")"), "\xc3\xa9");
  EXPECT_EQ(decode(R"("\u20AC")"), "\xe2\x82\xac");
  // Surrogate pairs, up to U+10FFFF.
  EXPECT_EQ(decode(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(decode(R"("\uDBFF\uDFFF")"), "\xf4\x8f\xbf\xbf");
}

TEST(JsonReader, RejectsLoneSurrogatesAndRawControlBytes) {
  // A high surrogate followed by nothing, a byte, a non-surrogate or
  // another high one; a low surrogate on its own.
  EXPECT_TRUE(rejects_string(R"("\ud83d")"));
  EXPECT_TRUE(rejects_string(R"("\ud83dx")"));
  EXPECT_TRUE(rejects_string(R"("\ud83d\u0041")"));
  EXPECT_TRUE(rejects_string(R"("\ud83d\ud83d")"));
  EXPECT_TRUE(rejects_string(R"("\ude00")"));
  // Short, non-hex and unknown escapes.
  EXPECT_TRUE(rejects_string(R"("\u12")"));
  EXPECT_TRUE(rejects_string(R"("\u12g4")"));
  EXPECT_TRUE(rejects_string(R"("\x")"));
  // Raw control bytes: tab, newline, NUL.
  EXPECT_TRUE(rejects_string("\"a\tb\""));
  EXPECT_TRUE(rejects_string("\"a\nb\""));
  EXPECT_TRUE(rejects_string(std::string("\"a\0b\"", 5)));
  // Unterminated, cut inside an escape, or not a JSON string at all.
  EXPECT_TRUE(rejects_string("\"abc"));
  EXPECT_TRUE(rejects_string("\"abc\\"));
  EXPECT_TRUE(rejects_string("'abc'"));
}

TEST(JsonReader, U64AcceptsTheFullRangeAndRejectsOverflow) {
  expect_u64("0", 0);
  expect_u64("18446744073709551615", UINT64_MAX);
  EXPECT_TRUE(rejects_u64("18446744073709551616"));
  EXPECT_TRUE(rejects_u64("99999999999999999999"));
  EXPECT_TRUE(rejects_u64("-1"));
  EXPECT_TRUE(rejects_u64("1.5"));
  EXPECT_TRUE(rejects_u64("1e3"));
  EXPECT_TRUE(rejects_u64("nan"));
  EXPECT_TRUE(rejects_u64(""));
  // No leading zeros: "01" reads as 0 with "1" left over.
  EXPECT_TRUE(rejects_u64("01"));
  JsonReader leading_zero("01");
  std::uint64_t v = 7;
  EXPECT_TRUE(leading_zero.u64(&v));
  EXPECT_EQ(v, 0u);
}

TEST(JsonReader, NumbersReadBackToTheSameBits) {
  expect_reads_back(0.0);
  expect_reads_back(-0.0);
  expect_reads_back(1.0 / 3.0);
  expect_reads_back(-1.5);
  expect_reads_back(4.2723285982897243e-08);
  expect_reads_back(1e-5);
  expect_reads_back(123456789012345678.0);
  // Denormals: the smallest, and the largest (just below DBL_MIN).
  expect_reads_back(std::numeric_limits<double>::denorm_min());
  expect_reads_back(2.2250738585072009e-308);
  expect_reads_back(std::numeric_limits<double>::min());
  expect_reads_back(std::numeric_limits<double>::max());
  expect_reads_back(-std::numeric_limits<double>::max());
  expect_reads_back(std::numeric_limits<double>::infinity());
  expect_reads_back(-std::numeric_limits<double>::infinity());
  expect_reads_back(std::numeric_limits<double>::quiet_NaN());
  expect_reads_back(-std::numeric_limits<double>::quiet_NaN());
}

TEST(JsonReader, RejectsMalformedNumbers) {
  EXPECT_TRUE(rejects_number("-"));
  EXPECT_TRUE(rejects_number("+1"));
  EXPECT_TRUE(rejects_number(".5"));
  EXPECT_TRUE(rejects_number("1."));
  EXPECT_TRUE(rejects_number("1e"));
  EXPECT_TRUE(rejects_number("1e+"));
  EXPECT_TRUE(rejects_number("-x"));
  EXPECT_TRUE(rejects_number("x"));
  EXPECT_TRUE(rejects_number("1e999"));
  EXPECT_TRUE(rejects_number("-1e999"));
  EXPECT_TRUE(rejects_number("Infinity"));
  EXPECT_TRUE(rejects_number("NaN"));
}

TEST(JsonReader, LiteralsAndStructure) {
  JsonReader r(R"( [true, false, null] )");
  bool t = false;
  bool f = true;
  EXPECT_TRUE(r.eat('['));
  EXPECT_TRUE(r.boolean(&t));
  EXPECT_TRUE(r.eat(','));
  EXPECT_TRUE(r.boolean(&f));
  EXPECT_TRUE(r.eat(','));
  EXPECT_FALSE(r.eat(']'));  // a failed eat is a probe: nothing consumed
  EXPECT_TRUE(r.null());
  EXPECT_TRUE(r.eat(']'));
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);

  bool b = false;
  JsonReader bad("tru");
  EXPECT_FALSE(bad.boolean(&b));
  JsonReader nul("nul");
  EXPECT_FALSE(nul.null());
}

TEST(JsonReader, RawValueReturnsTheExactSourceSpan) {
  const std::string value =
      R"({"a":[1,{"b":"}\"]"}],"c":"x{","d":{}, "e" : [ ] ,"f":-0.5e-3})";
  const std::string text = "  " + value + " , 5 ";
  JsonReader r(text);
  std::string raw;
  ASSERT_TRUE(r.raw_value(&raw)) << r.error();
  EXPECT_EQ(raw, value);
  std::uint64_t five = 0;
  EXPECT_TRUE(r.eat(','));
  EXPECT_TRUE(r.u64(&five));
  EXPECT_EQ(five, 5u);
  EXPECT_TRUE(r.at_end());

  for (const char* scalar : {R"("s\"}")", "-1.25", "true", "null"}) {
    const std::string text_in_array = std::string(scalar) + "]";
    JsonReader s(text_in_array);
    ASSERT_TRUE(s.raw_value(&raw)) << scalar;
    EXPECT_EQ(raw, scalar);
  }
}

TEST(JsonReader, SkipValueValidatesWhatItSkips) {
  EXPECT_TRUE(rejects_value("{\"a\":}"));
  EXPECT_TRUE(rejects_value("{\"a\" 1}"));
  EXPECT_TRUE(rejects_value("{1:2}"));
  EXPECT_TRUE(rejects_value("{\"a\":1,}"));
  EXPECT_TRUE(rejects_value("[1,]"));
  EXPECT_TRUE(rejects_value("[1 2]"));
  EXPECT_TRUE(rejects_value("[\"\\q\"]"));
  EXPECT_TRUE(rejects_value("[01]"));
  EXPECT_TRUE(rejects_value("[1e999]"));
  EXPECT_TRUE(rejects_value("[nul]"));
  EXPECT_TRUE(rejects_value("{"));
  EXPECT_TRUE(rejects_value("["));
  EXPECT_TRUE(rejects_value("]"));
  EXPECT_TRUE(rejects_value(""));
  // Iterative: nesting depth is bounded by memory, not by the stack.
  const std::size_t depth = 200000;
  const std::string nested = std::string(depth, '[') + std::string(depth, ']');
  JsonReader deep(nested);
  EXPECT_TRUE(deep.skip_value());
  EXPECT_TRUE(deep.at_end());
}

TEST(JsonReader, ReportsTheFailureOffset) {
  // The bad literal; the ']' where a value belongs; the '2' where ',' or
  // ']' belongs; the raw control byte; the trailing input; the start of
  // the out-of-range token.
  expect_error_at("{\"a\":tru}", 5);
  expect_error_at("[1,2,]", 5);
  expect_error_at("[1 2]", 3);
  expect_error_at("\"ab\x01\"", 3);
  expect_error_at("{\"a\":1} x", 8);
  expect_error_at("[1e999]", 1);
  // u64 names the start of the token it refuses.
  JsonReader overflow("  99999999999999999999");
  std::uint64_t v = 0;
  EXPECT_FALSE(overflow.u64(&v));
  EXPECT_EQ(overflow.error_offset(), 2u);
}

}  // namespace
}  // namespace psync
