// Unit tests for the one JSON layer (src/util/json.h). The golden vectors
// and every dumped artifact are only as trustworthy as this parser and
// writer, so their round trips and rejections get pinned here.

#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace prospector {
namespace util {
namespace {

Json MustParse(const std::string& text) {
  auto j = Json::Parse(text);
  EXPECT_TRUE(j.ok()) << text << " -> " << j.status().ToString();
  return j.ok() ? std::move(*j) : Json();
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").boolean());
  EXPECT_FALSE(MustParse("false").boolean());
  EXPECT_EQ(MustParse("42").AsInt(), 42);
  EXPECT_EQ(MustParse("-7").AsInt(), -7);
  EXPECT_DOUBLE_EQ(MustParse("2.5e3").number(), 2500.0);
  EXPECT_EQ(MustParse("\"hi\"").str(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  const Json j = MustParse(R"({"a": [1, {"b": "x"}], "c": {}})");
  ASSERT_TRUE(j.is_object());
  const Json& a = j.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].AsInt(), 1);
  EXPECT_EQ(a[1].at("b").str(), "x");
  EXPECT_TRUE(j.at("c").is_object());
  EXPECT_TRUE(j.contains("c"));
  EXPECT_FALSE(j.contains("missing"));
  EXPECT_EQ(j.Find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\/d\n\t")").str(), "a\"b\\c/d\n\t");
  // \uXXXX decodes to UTF-8.
  EXPECT_EQ(MustParse(R"("\u0041")").str(), "A");
  EXPECT_EQ(MustParse(R"("\u00e9")").str(), "\xc3\xa9");
  EXPECT_EQ(MustParse(R"("\u2264")").str(), "\xe2\x89\xa4");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",           "[1,]",        "{\"a\":}",
      "{\"a\" 1}",  "01",          "1.",          "+1",
      "nul",        "\"unterminated", "\"\\q\"",  "\"\\ud800\"",
      "[1] trailing", "{\"a\":1,}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, DumpParseRoundTripPreservesStructure) {
  Json doc = Json::Object();
  doc.Set("name", "case");
  doc.Set("count", 3);
  doc.Set("ratio", 0.1);
  doc.Set("flag", true);
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append("two");
  arr.Append(Json());
  doc.Set("items", std::move(arr));

  const std::string text = doc.Dump(2);
  const Json back = MustParse(text);
  EXPECT_EQ(back.at("name").str(), "case");
  EXPECT_EQ(back.at("count").AsInt(), 3);
  EXPECT_DOUBLE_EQ(back.at("ratio").number(), 0.1);
  EXPECT_TRUE(back.at("flag").boolean());
  ASSERT_EQ(back.at("items").size(), 3u);
  EXPECT_TRUE(back.at("items")[2].is_null());
  // Round trip is a fixpoint: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(MustParse(text).Dump(2), text);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json doc = Json::Object();
  doc.Set("zulu", 1);
  doc.Set("alpha", 2);
  doc.Set("mike", 3);
  const std::string text = doc.Dump(0);
  EXPECT_LT(text.find("zulu"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mike"));
}

TEST(JsonTest, NumbersRoundTripExactly) {
  // Integers stay integer-spelled; doubles use shortest-exact form.
  for (const char* text : {"0", "-1", "2147483647", "1e300", "0.30000000001",
                           "-2.2250738585072014e-308"}) {
    const Json j = MustParse(text);
    EXPECT_EQ(MustParse(j.Dump(0)).number(), j.number()) << text;
  }
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  Json doc = Json::Array();
  doc.Append(std::nan(""));
  doc.Append(std::numeric_limits<double>::infinity());
  doc.Append(-std::numeric_limits<double>::infinity());
  doc.Append(1.5);
  const std::string text = doc.Dump(-1);
  EXPECT_EQ(text, "[null,null,null,1.5]");
  const Json back = MustParse(text);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_TRUE(back[0].is_null());
  EXPECT_TRUE(back[2].is_null());
}

}  // namespace
}  // namespace util
}  // namespace prospector
