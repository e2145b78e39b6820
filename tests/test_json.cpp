#include "util/json.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace h3cdn::util {
namespace {

TEST(Json, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(Json, KeyValuePairs) {
  JsonWriter w;
  w.begin_object().kv("a", 1).kv("b", "x").kv("c", true).end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(Json, NestedStructures) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().kv("k", std::int64_t{-5}).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2],"obj":{"k":-5}})");
}

TEST(Json, EscapesSpecialCharacters) {
  JsonWriter w;
  w.begin_object().kv("s", "a\"b\\c\nd\te").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, EscapesControlCharacters) {
  JsonWriter w;
  std::string s = "x";
  s += '\x01';
  w.begin_object().kv("s", s).end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"x\\u0001\"}");
}

TEST(Json, DoubleFormatting) {
  JsonWriter w;
  w.begin_array().value(1.5).value(0.0).end_array();
  EXPECT_EQ(w.str(), "[1.5,0]");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Json, NullValue) {
  JsonWriter w;
  w.begin_object().key("n").null().end_object();
  EXPECT_EQ(w.str(), R"({"n":null})");
}

TEST(Json, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) w.begin_object().kv("i", i).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(Json, UnsignedAndSizeTypes) {
  JsonWriter w;
  w.begin_array().value(std::uint64_t{18446744073709551615ULL}).value(7u).end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,7]");
}

/// The document JsonWriter makes of one string value.
std::string escaped(const std::string& s) {
  JsonWriter w;
  w.begin_array().value(s).end_array();
  return w.str();
}

TEST(Json, EscapesAtFirstLastAndConsecutivePositions) {
  EXPECT_EQ(escaped("\"ab"), R"(["\"ab"])");
  EXPECT_EQ(escaped("ab\\"), R"(["ab\\"])");
  EXPECT_EQ(escaped("\n\t\r"), R"(["\n\t\r"])");
  EXPECT_EQ(escaped("a\"\"b\\\\c"), R"(["a\"\"b\\\\c"])");
  EXPECT_EQ(escaped("\""), R"(["\""])");
  EXPECT_EQ(escaped(""), R"([""])");
  EXPECT_EQ(escaped("clean"), R"(["clean"])");
}

TEST(Json, EscapesEveryControlByteAndPassesTheRestThrough) {
  EXPECT_EQ(escaped(std::string(1, '\x00')), R"(["\u0000"])");
  EXPECT_EQ(escaped("\x1f"), R"(["\u001f"])");
  EXPECT_EQ(escaped("\x1f\x1f"), R"(["\u001f\u001f"])");
  EXPECT_EQ(escaped("a\x0b"), R"(["a\u000b"])");
  // 0x7f (DEL) and bytes >= 0x80 (UTF-8) are legal in a JSON string.
  EXPECT_EQ(escaped("\x7f"), "[\"\x7f\"]");
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xff\x80";
  EXPECT_EQ(escaped(utf8), "[\"" + utf8 + "\"]");
  // Keys take the same path as values.
  JsonWriter w;
  w.begin_object().kv("\x01k\"", 1).end_object();
  EXPECT_EQ(w.str(), R"({"\u0001k\"":1})");
}

TEST(Json, IntegersAtTheirLimits) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::int64_t>::max())
      .value(std::uint64_t{0})
      .value(-1)
      .end_array();
  EXPECT_EQ(w.str(), "[-9223372036854775808,9223372036854775807,0,-1]");
}

/// printf's %.15g, the format value(double) has always written.
std::string printf_15g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

TEST(Json, DoublesMatchPrintf15gOnAHundredThousandValues) {
  Rng rng(0x15f0a7);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1e15, 1e16, 123456789012345.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::nextafter(0.0, 1.0), 9007199254740992.0,
                                9007199254740993.0};
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns: every exponent and sign, subnormals included.
    const double bits = std::bit_cast<double>(rng.next());
    if (std::isfinite(bits)) values.push_back(bits);
    // Subnormals.
    values.push_back(std::bit_cast<double>(rng.next() & 0x000fffffffffffffULL));
    // Integers up to 2^53, either sign.
    const auto n = static_cast<double>(rng.next() >> 11);
    values.push_back(rng.bernoulli(0.5) ? n : -n);
    // The far ends of the range: around +-1e+-300 and the largest exponents.
    const int exponent = static_cast<int>(rng.uniform_int(990, 1023));
    const double huge = std::ldexp(rng.uniform(0.5, 1.0), exponent);
    values.push_back(rng.bernoulli(0.5) ? huge : 1.0 / huge);
    const double scale = rng.uniform(1.0, 9.0);
    values.push_back(rng.bernoulli(0.5) ? 1e300 * scale : -1e-300 * scale);
    // Near a 15-digit rounding boundary: a 16-digit decimal ending in 5,
    // parsed, and its two neighbours.
    const auto digits = rng.uniform_int(100000000000000, 999999999999999);
    char text[64];
    std::snprintf(text, sizeof text, "%lld5e%d", static_cast<long long>(digits),
                  static_cast<int>(rng.uniform_int(-320, 290)));
    const double tie = std::strtod(text, nullptr);
    values.push_back(tie);
    values.push_back(std::nextafter(tie, 0.0));
    values.push_back(std::nextafter(tie, std::numeric_limits<double>::infinity()));
  }
  ASSERT_GE(values.size(), 100000u);
  std::size_t mismatches = 0;
  for (const double v : values) {
    JsonWriter w;
    w.begin_array().value(v).end_array();
    const std::string& doc = w.str();  // "[" value "]"
    const std::string expected = printf_15g(v);
    if (doc.compare(1, doc.size() - 2, expected) != 0 && ++mismatches <= 5) {
      ADD_FAILURE() << std::bit_cast<std::uint64_t>(v) << ": " << doc << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace h3cdn::util
