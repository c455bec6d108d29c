#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "support/json.hpp"

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
