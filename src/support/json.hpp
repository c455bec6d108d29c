// Minimal JSON support: a streaming writer so benchmark tables and run
// statistics can be exported for plotting/regression tracking, and the one
// JSON grammar in the tree — a pull reader (JsonReader) — with a DOM
// (JsonValue, parse_json) built on top of it. Readers of large documents,
// such as the smtu-trace-v1 loader, pull values straight from the reader
// without building a DOM. The writer produces compact, valid JSON with
// correct string escaping and locale-independent number formatting.
#pragma once

#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/table.hpp"
#include "support/types.hpp"

namespace smtu {

// Output is staged in an internal buffer and handed to the stream whenever
// the buffer fills and when the root value closes, so callers may write to
// the stream (a trailing '\n', say) once the document is complete.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter() { flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // Containers. Every begin_* must be closed by the matching end_*; the
  // writer tracks commas and aborts on mismatched nesting.
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Keys (inside objects) and values (inside arrays or after a key).
  void key(std::string_view name);
  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(i64 number);
  void value(u64 number);
  void value(bool flag);
  void null();

  // Splices `text` — which must itself be valid JSON — as one value.
  // Used to embed pre-rendered sections (e.g. cached profile JSON) without
  // re-serializing them.
  void raw(std::string_view text);

  // True when every container has been closed.
  bool complete() const { return stack_.empty() && emitted_root_; }

  static std::string escape(std::string_view text);

 private:
  enum class Scope { kObject, kArray };

  void before_value();
  void write_string(std::string_view text);
  void write(std::string_view text) { buffer_.append(text); }
  // Hands the buffer to the stream once the root value is complete or the
  // buffer is large.
  void end_value() {
    if (stack_.empty() || buffer_.size() >= kFlushBytes) flush();
  }
  void flush();

  static constexpr usize kFlushBytes = 1 << 14;

  std::ostream& out_;
  std::string buffer_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
  bool emitted_root_ = false;
};

// Serializes a TextTable as an array of objects keyed by the header cells.
// Numeric-looking cells are emitted as numbers.
void write_table_as_json(std::ostream& out, const TextTable& table);

// One JSON number as read: the double nearest the lexeme and, when the
// lexeme has no fraction and no exponent and fits u64 (or, when negative,
// i64), its exact integer value. Integers above 2^53 therefore survive a
// read unrounded.
struct JsonNumber {
  double value = 0.0;
  bool integral = false;  // `integer` holds the lexeme's exact value
  bool negative = false;  // with `integral`: the value is static_cast<i64>(integer) < 0
  u64 integer = 0;
};

// Parsed JSON document. Numbers keep the exact integer next to the double
// (JsonNumber); object member order is preserved so golden tests can assert
// stable key ordering.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors abort (SMTU_CHECK) on kind mismatch. The integer reads
  // return an integral lexeme's exact value and abort when the number is
  // outside the target type's range.
  bool as_bool() const;
  double as_double() const;
  const JsonNumber& as_number() const;
  i64 as_i64() const;
  u64 as_u64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;    // array elements
  const std::vector<Member>& members() const;     // object members, in order

  usize size() const;  // array/object element count

  // Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  // Like find, but aborts when the key is missing.
  const JsonValue& at(std::string_view key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool flag);
  static JsonValue make_number(double number);
  static JsonValue make_number(const JsonNumber& number);
  static JsonValue make_string(std::string text);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  JsonNumber number_;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

// A pull cursor over one JSON document: the only JSON grammar in the tree.
// The caller walks the document value by value:
//
//   JsonReader reader(text);
//   if (reader.peek() == JsonReader::Kind::kObject) {
//     reader.begin_object();
//     std::string_view key;
//     while (reader.next_member(key)) { ... read or skip_value() ... }
//   } else {
//     reader.skip_value();
//   }
//   reader.finish();
//   if (!reader.ok()) ... reader.error() ...
//
// Every call returns false (or an empty result) once the reader has failed;
// the first failure is kept as a one-line description with its byte offset.
class JsonReader {
 public:
  using Kind = JsonValue::Kind;

  static constexpr usize kMaxDepth = 256;

  explicit JsonReader(std::string_view text) : text_(text) {}

  // Skips whitespace and classifies the next value by its first byte,
  // without consuming it; nullopt at the end of input or past kMaxDepth.
  // Anything that is not a container, string or literal classifies as a
  // number, which the number lexer then rejects.
  std::optional<Kind> peek();

  // Containers. begin_* consumes the opening bracket of the next value.
  // Each next_* call then moves to the next element and returns true, or
  // consumes the closing bracket (or fails) and returns false. next_member
  // also reads the key and its ':'; `key` stays valid until the next read.
  bool begin_object();
  bool next_member(std::string_view& key);
  bool begin_array();
  bool next_item();

  // Scalars. A string view stays valid until the next read.
  std::optional<std::string_view> read_string();
  std::optional<JsonNumber> read_number();
  std::optional<bool> read_bool();
  bool read_null();
  // Consumes the next value, checking its grammar without keeping it.
  bool skip_value();

  // After the root value: anything but whitespace is an error.
  bool finish();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  bool begin_container(char open);
  bool close_container(char close);
  bool string_body(std::string_view& out);
  std::optional<u32> hex4();
  bool literal(std::string_view word);
  void skip_whitespace();
  bool consume(char expected);
  bool fail(const char* message);

  std::string_view text_;
  usize pos_ = 0;
  usize depth_ = 0;
  bool fresh_ = false;   // a container was just opened: no ',' before its first element
  std::string scratch_;  // decoded text of a string that had escapes
  std::string error_;
};

// Reads the reader's next value into a DOM; nullopt once the reader fails.
std::optional<JsonValue> read_json_value(JsonReader& reader);

// Parses a complete JSON document (trailing whitespace allowed, nothing
// else). Returns nullopt on malformed input and, when `error` is non-null,
// stores a one-line description with the byte offset.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace smtu
