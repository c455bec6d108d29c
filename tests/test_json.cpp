#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

TEST(Json, SimpleObject) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name");
  json.value("smtu");
  json.key("count");
  json.value(i64{42});
  json.key("ratio");
  json.value(0.5);
  json.key("ok");
  json.value(true);
  json.key("missing");
  json.null();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out.str(), R"({"name":"smtu","count":42,"ratio":0.5,"ok":true,"missing":null})");
}

TEST(Json, NestedArraysAndObjects) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(i64{1});
  json.begin_object();
  json.key("inner");
  json.begin_array();
  json.value(i64{2});
  json.value(i64{3});
  json.end_array();
  json.end_object();
  json.value(i64{4});
  json.end_array();
  EXPECT_EQ(out.str(), R"([1,{"inner":[2,3]},4])");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::escape(std::string("ctl\x01", 4)), "ctl\\u0001");
}

// The writer must render every number exactly as the printf formats it
// replaced: the checked-in traces and baselines pin those bytes.
std::string written(double number) {
  std::ostringstream out;
  JsonWriter json(out);
  json.value(number);
  return out.str();
}

TEST(Json, DoublesRenderAsPercentPoint12G) {
  std::vector<double> corpus = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-4, 9.99999999999e-5,
      1e12, 1e12 - 1, 1e12 + 1, 999999999999.5, 1e21, 1e22, 123456789012.5,
      1234567890125.0, 0.1234567890125, 9.999999999995, 9.9999999999995,
      std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3.0, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), std::numeric_limits<double>::epsilon(),
      20000.0, 0.75, 1.5, 0.05, 4.0};
  Rng rng(0x12E5EED);
  for (int i = 0; i < 20000; ++i) {
    // Uniform bit patterns reach every exponent; the scaled draws cover the
    // magnitudes reports actually write.
    const double bits = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(bits)) corpus.push_back(bits);
    corpus.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.range(-30, 30)));
  }
  for (const double number : corpus) {
    ASSERT_EQ(written(number), format("%.12g", number)) << std::bit_cast<u64>(number);
  }
}

TEST(Json, IntegersRenderExactlyAtTheirLimits) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<i64>::min());
  json.value(std::numeric_limits<i64>::max());
  json.value(std::numeric_limits<u64>::max());
  json.value(i64{0});
  json.value(u64{0});
  json.end_array();
  EXPECT_EQ(out.str(),
            "[-9223372036854775808,9223372036854775807,18446744073709551615,0,0]");
}

TEST(Json, KeysAndValuesNeedingEscapesAreEscaped) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("plain");
  json.value("text");
  json.key("q\"uote");
  json.value(std::string("back\\slash\x1f\ttab\n", 16));
  json.key(std::string("ctl\x01", 4));
  json.value("\"");
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\"plain\":\"text\",\"q\\\"uote\":\"back\\\\slash\\u001f\\ttab\\n\","
            "\"ctl\\u0001\":\"\\\"\"}");
  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("q\"uote").as_string(), std::string("back\\slash\x1f\ttab\n", 16));
  EXPECT_EQ(doc->at(std::string("ctl\x01", 4)).as_string(), "\"");
}

TEST(Json, OutputReachesTheStreamWhenTheRootCloses) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  for (u64 i = 0; i < 5000; ++i) json.value(i);
  json.end_array();
  out << '\n';  // callers append to the stream once the document is complete
  const std::string text = out.str();
  ASSERT_EQ(text.back(), '\n');
  const auto doc = parse_json(std::string_view(text).substr(0, text.size() - 1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->size(), 5000u);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(Json, TableSerialization) {
  TextTable table({"matrix", "nnz", "speedup"});
  table.add_row({"qc324-syn", "60006", "21.2"});
  table.add_row({"bcspwr10-syn", "60002", "2.8"});
  std::ostringstream out;
  write_table_as_json(out, table);
  EXPECT_EQ(out.str(),
            "[{\"matrix\":\"qc324-syn\",\"nnz\":60006,\"speedup\":21.2},"
            "{\"matrix\":\"bcspwr10-syn\",\"nnz\":60002,\"speedup\":2.8}]\n");
}

TEST(Json, TableKeepsNonNumericCellsAsStrings) {
  TextTable table({"a", "b"});
  table.add_row({"1.5x", "12%"});
  std::ostringstream out;
  write_table_as_json(out, table);
  EXPECT_EQ(out.str(), "[{\"a\":\"1.5x\",\"b\":\"12%\"}]\n");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_EQ(parse_json("true")->as_bool(), true);
  EXPECT_EQ(parse_json("false")->as_bool(), false);
  EXPECT_EQ(parse_json("42")->as_i64(), 42);
  EXPECT_EQ(parse_json("-7")->as_i64(), -7);
  EXPECT_DOUBLE_EQ(parse_json("-3.5")->as_double(), -3.5);
  EXPECT_DOUBLE_EQ(parse_json("1.25e2")->as_double(), 125.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
  EXPECT_EQ(parse_json("  [1, 2]  ")->size(), 2u);
}

TEST(JsonParse, IntegersAreExactToTheirFullRange) {
  EXPECT_EQ(parse_json("9007199254740993")->as_u64(), 9007199254740993ull);
  EXPECT_EQ(parse_json("18446744073709551615")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(parse_json("-9223372036854775808")->as_i64(), std::numeric_limits<i64>::min());
  EXPECT_EQ(parse_json("9223372036854775807")->as_i64(), std::numeric_limits<i64>::max());
  EXPECT_EQ(parse_json("-9007199254740993")->as_i64(), -9007199254740993ll);
  // The double next to the exact integer is still the nearest one.
  EXPECT_EQ(parse_json("9007199254740993")->as_double(), 9007199254740992.0);
  // Fractions and exponents are not integral lexemes, even when whole.
  EXPECT_FALSE(parse_json("2.0")->as_number().integral);
  EXPECT_FALSE(parse_json("1e2")->as_number().integral);
  EXPECT_EQ(parse_json("1e2")->as_u64(), 100u);
  // "-0" is the integer 0 and the double -0.0.
  const JsonNumber zero = parse_json("-0")->as_number();
  EXPECT_TRUE(zero.integral);
  EXPECT_FALSE(zero.negative);
  EXPECT_EQ(parse_json("-0")->as_u64(), 0u);
  EXPECT_TRUE(std::signbit(zero.value));
}

TEST(JsonParse, UnderflowReadsAsZeroAndOverflowIsAnError) {
  EXPECT_EQ(parse_json("1e-400")->as_double(), 0.0);
  EXPECT_EQ(parse_json("4.9e-324")->as_double(), std::numeric_limits<double>::denorm_min());
  std::string error;
  EXPECT_FALSE(parse_json("1e400", &error).has_value());
  EXPECT_EQ(error, "number out of range (at byte 5)");
}

TEST(JsonReader, PullsValuesWithoutADom) {
  JsonReader reader(R"( {"a": [1, "two", {"b": null}], "c": true, "d\u0065": -5} )");
  ASSERT_EQ(reader.peek(), JsonReader::Kind::kObject);
  ASSERT_TRUE(reader.begin_object());
  std::string_view key;
  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(reader.begin_array());
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.read_number()->integer, 1u);
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.read_string(), "two");
  ASSERT_TRUE(reader.next_item());
  EXPECT_TRUE(reader.skip_value());
  EXPECT_FALSE(reader.next_item());
  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "c");
  EXPECT_EQ(reader.read_bool(), true);
  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "de");  // decoded from its escape
  const std::optional<JsonNumber> number = reader.read_number();
  ASSERT_TRUE(number.has_value());
  EXPECT_TRUE(number->negative);
  EXPECT_EQ(static_cast<i64>(number->integer), -5);
  EXPECT_FALSE(reader.next_member(key));
  EXPECT_TRUE(reader.finish());
  EXPECT_TRUE(reader.ok());
}

TEST(JsonReader, ReportsTheFirstErrorWithItsOffset) {
  JsonReader reader("[1, 2 x]");
  EXPECT_TRUE(reader.skip_value() == false);
  EXPECT_EQ(reader.error(), "expected ',' or ']' in array (at byte 6)");
  EXPECT_FALSE(reader.finish());
  EXPECT_EQ(reader.error(), "expected ',' or ']' in array (at byte 6)");

  JsonReader trailing("{} {}");
  EXPECT_TRUE(trailing.skip_value());
  EXPECT_FALSE(trailing.finish());
  EXPECT_EQ(trailing.error(), "trailing characters after JSON document (at byte 3)");
}

TEST(JsonParse, ObjectPreservesMemberOrder) {
  const auto doc = parse_json(R"({"zeta":1,"alpha":2,"mid":3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "zeta");
  EXPECT_EQ(doc->members()[1].first, "alpha");
  EXPECT_EQ(doc->members()[2].first, "mid");
  EXPECT_EQ(doc->at("alpha").as_u64(), 2u);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, NestedStructure) {
  const auto doc = parse_json(R"({"rows":[{"name":"a","v":[1,2]},{"name":"b","v":[]}]})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue& rows = doc->at("rows");
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0].at("name").as_string(), "a");
  EXPECT_EQ(rows.items()[0].at("v").items()[1].as_i64(), 2);
  EXPECT_EQ(rows.items()[1].at("v").size(), 0u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")")->as_string(), "a\"b\\c\nd");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"")->as_string(), "A\xc3\xa9");
  // A \u surrogate pair decodes to one 4-byte UTF-8 sequence (U+1F600).
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"")->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, MalformedInputsReportOffset) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} extra", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_NE(error.find("at byte"), std::string::npos);
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("01", &error).has_value());
  EXPECT_FALSE(parse_json("\"\x01\"", &error).has_value());
  EXPECT_FALSE(parse_json(R"("\ud83d")", &error).has_value());
}

TEST(JsonParse, RejectsRunawayNesting) {
  const std::string deep(400, '[');
  std::string error;
  EXPECT_FALSE(parse_json(deep + std::string(400, ']'), &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos);
}

TEST(JsonParse, WriterOutputRoundTrips) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("text");
  json.value("line\nbreak \"quoted\"");
  json.key("big");
  json.value(u64{1} << 53);
  json.key("neg");
  json.value(i64{-12});
  json.key("list");
  json.begin_array();
  json.value(0.25);
  json.value(false);
  json.null();
  json.end_array();
  json.end_object();
  ASSERT_TRUE(json.complete());

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("text").as_string(), "line\nbreak \"quoted\"");
  EXPECT_EQ(doc->at("big").as_u64(), u64{1} << 53);
  EXPECT_EQ(doc->at("neg").as_i64(), -12);
  EXPECT_DOUBLE_EQ(doc->at("list").items()[0].as_double(), 0.25);
  EXPECT_EQ(doc->at("list").items()[1].as_bool(), false);
  EXPECT_TRUE(doc->at("list").items()[2].is_null());
}

TEST(JsonDeathTest, MisuseAborts) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    EXPECT_DEATH(json.value(i64{1}), "needs a key");
  }
  {
    JsonWriter json(out);
    json.begin_array();
    EXPECT_DEATH(json.key("nope"), "outside of an object");
  }
  {
    JsonWriter json(out);
    json.begin_array();
    EXPECT_DEATH(json.end_object(), "mismatched");
  }
}

TEST(JsonDeathTest, IntegerReadsOutsideTheTargetRangeAbort) {
  EXPECT_EQ(parse_json("18446744073709549568")->as_u64(), 18446744073709549568ull);
  EXPECT_DEATH(parse_json("1e300")->as_u64(), "exceeds the u64 range");
  EXPECT_DEATH(parse_json("18446744073709551616")->as_u64(), "exceeds the u64 range");
  EXPECT_DEATH(parse_json("-1")->as_u64(), "negative");
  EXPECT_DEATH(parse_json("-1e300")->as_i64(), "out of the i64 range");
}

}  // namespace
}  // namespace smtu
