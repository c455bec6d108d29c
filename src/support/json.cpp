#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {

namespace {

bool needs_escape(std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

}  // namespace

std::string JsonWriter::escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          escaped += format("\\u%04x", c);
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void JsonWriter::flush() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::write_string(std::string_view text) {
  buffer_ += '"';
  if (needs_escape(text)) {
    write(escape(text));
  } else {
    write(text);
  }
  buffer_ += '"';
}

void JsonWriter::before_value() {
  SMTU_CHECK_MSG(!emitted_root_ || !stack_.empty(), "JSON document already complete");
  if (!stack_.empty()) {
    if (stack_.back() == Scope::kObject) {
      SMTU_CHECK_MSG(pending_key_, "object member needs a key first");
      pending_key_ = false;
    } else if (!first_in_scope_.back()) {
      buffer_ += ',';
    }
    first_in_scope_.back() = false;
  } else {
    emitted_root_ = true;
  }
}

void JsonWriter::begin_object() {
  before_value();
  buffer_ += '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_,
                 "mismatched end_object");
  buffer_ += '}';
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) emitted_root_ = true;
  end_value();
}

void JsonWriter::begin_array() {
  before_value();
  buffer_ += '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray, "mismatched end_array");
  buffer_ += ']';
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) emitted_root_ = true;
  end_value();
}

void JsonWriter::key(std::string_view name) {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                 "key outside of an object");
  SMTU_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!first_in_scope_.back()) buffer_ += ',';
  write_string(name);
  buffer_ += ':';
  pending_key_ = true;
  // before_value must not add another comma for this member.
  first_in_scope_.back() = true;
}

void JsonWriter::value(std::string_view text) {
  before_value();
  write_string(text);
  end_value();
}

void JsonWriter::value(double number) {
  before_value();
  if (std::isfinite(number)) {
    // chars_format::general at precision 12 is specified as printf's %.12g.
    char digits[32];
    const char* end =
        std::to_chars(digits, digits + sizeof digits, number, std::chars_format::general, 12).ptr;
    write(std::string_view(digits, static_cast<usize>(end - digits)));
  } else {
    write("null");  // JSON has no Inf/NaN
  }
  end_value();
}

void JsonWriter::value(i64 number) {
  before_value();
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof digits, number).ptr;
  write(std::string_view(digits, static_cast<usize>(end - digits)));
  end_value();
}

void JsonWriter::value(u64 number) {
  before_value();
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof digits, number).ptr;
  write(std::string_view(digits, static_cast<usize>(end - digits)));
  end_value();
}

void JsonWriter::value(bool flag) {
  before_value();
  write(flag ? "true" : "false");
  end_value();
}

void JsonWriter::null() {
  before_value();
  write("null");
  end_value();
}

void JsonWriter::raw(std::string_view text) {
  before_value();
  write(text);
  end_value();
}

void write_table_as_json(std::ostream& out, const TextTable& table) {
  JsonWriter json(out);
  json.begin_array();
  for (usize r = 0; r < table.rows(); ++r) {
    json.begin_object();
    for (usize c = 0; c < table.columns(); ++c) {
      json.key(table.header()[c]);
      const std::string& cell = table.row(r)[c];
      if (const auto integer = parse_int(cell)) {
        json.value(*integer);
      } else if (const auto number = parse_double(cell)) {
        json.value(*number);
      } else {
        json.value(cell);
      }
    }
    json.end_object();
  }
  json.end_array();
  out << '\n';
}

// ---- JsonValue -------------------------------------------------------------

bool JsonValue::as_bool() const {
  SMTU_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_double() const { return as_number().value; }

const JsonNumber& JsonValue::as_number() const {
  SMTU_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

// An integral lexeme reads exactly. Otherwise both integer reads check the
// double's range first: converting a double outside the target type's range
// is undefined behaviour, not a wrap.
i64 JsonValue::as_i64() const {
  const JsonNumber& number = as_number();
  if (number.integral) {
    SMTU_CHECK_MSG(number.negative || number.integer <= u64{std::numeric_limits<i64>::max()},
                   "JSON number is out of the i64 range");
    return static_cast<i64>(number.integer);
  }
  SMTU_CHECK_MSG(number.value >= -0x1p63 && number.value < 0x1p63,
                 "JSON number is out of the i64 range");
  return static_cast<i64>(number.value);
}

u64 JsonValue::as_u64() const {
  const JsonNumber& number = as_number();
  if (number.integral) {
    SMTU_CHECK_MSG(!number.negative, "JSON number is negative");
    return number.integer;
  }
  SMTU_CHECK_MSG(number.value >= 0.0, "JSON number is negative");
  SMTU_CHECK_MSG(number.value < 0x1p64, "JSON number exceeds the u64 range");
  return static_cast<u64>(number.value);
}

const std::string& JsonValue::as_string() const {
  SMTU_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  SMTU_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  SMTU_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

usize JsonValue::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  SMTU_CHECK_MSG(false, "JSON value has no size");
  return 0;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  SMTU_CHECK_MSG(value != nullptr, "missing JSON key " + std::string(key));
  return *value;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool flag) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = flag;
  return value;
}

JsonValue JsonValue::make_number(double number) {
  JsonNumber parsed;
  parsed.value = number;
  return make_number(parsed);
}

JsonValue JsonValue::make_number(const JsonNumber& number) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = number;
  return value;
}

JsonValue JsonValue::make_string(std::string text) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(text);
  return value;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue value;
  value.kind_ = Kind::kArray;
  value.items_ = std::move(items);
  return value;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue value;
  value.kind_ = Kind::kObject;
  value.members_ = std::move(members);
  return value;
}

// ---- reader ----------------------------------------------------------------

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, u32 codepoint) {
  if (codepoint < 0x80) {
    out += static_cast<char>(codepoint);
  } else if (codepoint < 0x800) {
    out += static_cast<char>(0xC0 | (codepoint >> 6));
    out += static_cast<char>(0x80 | (codepoint & 0x3F));
  } else if (codepoint < 0x10000) {
    out += static_cast<char>(0xE0 | (codepoint >> 12));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (codepoint & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (codepoint >> 18));
    out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (codepoint & 0x3F));
  }
}

}  // namespace

std::optional<JsonReader::Kind> JsonReader::peek() {
  if (!ok()) return std::nullopt;
  if (depth_ > kMaxDepth) {
    fail("nesting too deep");
    return std::nullopt;
  }
  skip_whitespace();
  if (pos_ >= text_.size()) {
    fail("unexpected end of input");
    return std::nullopt;
  }
  switch (text_[pos_]) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

bool JsonReader::begin_container(char open) {
  if (!peek()) return false;
  if (text_[pos_] != open) return fail(open == '{' ? "expected an object" : "expected an array");
  ++pos_;
  ++depth_;
  fresh_ = true;
  return true;
}

bool JsonReader::close_container(char close) {
  if (!consume(close)) return false;
  --depth_;
  return true;
}

bool JsonReader::begin_object() { return begin_container('{'); }
bool JsonReader::begin_array() { return begin_container('['); }

bool JsonReader::next_member(std::string_view& key) {
  if (!ok()) return false;
  skip_whitespace();
  if (fresh_) {
    fresh_ = false;
    if (close_container('}')) return false;
  } else if (!consume(',')) {
    if (close_container('}')) return false;
    return fail("expected ',' or '}' in object");
  }
  skip_whitespace();
  if (!consume('"')) return fail("expected object key");
  if (!string_body(key)) return false;
  skip_whitespace();
  if (!consume(':')) return fail("expected ':' after object key");
  return true;
}

bool JsonReader::next_item() {
  if (!ok()) return false;
  skip_whitespace();
  if (fresh_) {
    fresh_ = false;
    return !close_container(']');
  }
  if (consume(',')) return true;
  if (close_container(']')) return false;
  return fail("expected ',' or ']' in array");
}

std::optional<std::string_view> JsonReader::read_string() {
  const std::optional<Kind> kind = peek();
  if (!kind) return std::nullopt;
  if (*kind != Kind::kString) {
    fail("expected a string");
    return std::nullopt;
  }
  ++pos_;  // opening quote
  std::string_view text;
  if (!string_body(text)) return std::nullopt;
  return text;
}

bool JsonReader::string_body(std::string_view& out) {
  // Text without escapes is handed out as a view of the input.
  const usize begin = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      out = text_.substr(begin, pos_ - begin);
      ++pos_;
      return true;
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
    ++pos_;
  }
  scratch_.assign(text_.substr(begin, pos_ - begin));
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      out = scratch_;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
    if (c != '\\') {
      scratch_ += c;
      ++pos_;
      continue;
    }
    ++pos_;  // backslash
    if (pos_ >= text_.size()) return fail("unterminated escape");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        std::optional<u32> code = hex4();
        if (!code) return false;
        u32 codepoint = *code;
        if (codepoint >= 0xD800 && codepoint <= 0xDBFF) {
          // High surrogate: a \uXXXX low surrogate must follow.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
            return fail("unpaired UTF-16 surrogate");
          }
          pos_ += 2;
          std::optional<u32> low = hex4();
          if (!low) return false;
          if (*low < 0xDC00 || *low > 0xDFFF) return fail("invalid low surrogate");
          codepoint = 0x10000 + ((codepoint - 0xD800) << 10) + (*low - 0xDC00);
        } else if (codepoint >= 0xDC00 && codepoint <= 0xDFFF) {
          return fail("unpaired UTF-16 surrogate");
        }
        append_utf8(scratch_, codepoint);
        break;
      }
      default: return fail("unknown escape character");
    }
  }
  return fail("unterminated string");
}

std::optional<u32> JsonReader::hex4() {
  if (pos_ + 4 > text_.size()) {
    fail("truncated \\u escape");
    return std::nullopt;
  }
  u32 value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<u32>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<u32>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<u32>(c - 'A' + 10);
    else {
      fail("invalid \\u escape digit");
      return std::nullopt;
    }
  }
  return value;
}

std::optional<JsonNumber> JsonReader::read_number() {
  const std::optional<Kind> kind = peek();
  if (!kind) return std::nullopt;
  if (*kind != Kind::kNumber) {
    fail("expected a number");
    return std::nullopt;
  }
  const usize begin = pos_;
  bool integral = true;
  if (text_[pos_] == '-') ++pos_;
  if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
    fail("malformed number");
    return std::nullopt;
  }
  if (text_[pos_] == '0') {
    ++pos_;  // leading zeros are not allowed
  } else {
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      fail("malformed fraction");
      return std::nullopt;
    }
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      fail("malformed exponent");
      return std::nullopt;
    }
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }
  const char* first = text_.data() + begin;
  const char* last = text_.data() + pos_;
  JsonNumber number;
  if (integral) {
    // Exact when it fits; otherwise only the double below survives.
    if (*first == '-') {
      i64 integer = 0;
      if (const auto parsed = std::from_chars(first, last, integer);
          parsed.ec == std::errc() && parsed.ptr == last) {
        number.integral = true;
        number.negative = integer < 0;
        number.integer = static_cast<u64>(integer);
        number.value = integer == 0 ? -0.0 : static_cast<double>(integer);
        return number;
      }
    } else if (const auto parsed = std::from_chars(first, last, number.integer);
               parsed.ec == std::errc() && parsed.ptr == last) {
      number.integral = true;
      number.value = static_cast<double>(number.integer);
      return number;
    }
    number.integer = 0;
  }
  if (const auto parsed = std::from_chars(first, last, number.value);
      parsed.ec != std::errc() || parsed.ptr != last) {
    // from_chars also rejects a lexeme that underflows to zero, which strtod
    // (and so this grammar) accepts; only an overflow is an error.
    const std::string token(first, last);
    char* end = nullptr;
    number.value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(number.value)) {
      fail("number out of range");
      return std::nullopt;
    }
  }
  return number;
}

std::optional<bool> JsonReader::read_bool() {
  const std::optional<Kind> kind = peek();
  if (!kind) return std::nullopt;
  if (*kind != Kind::kBool) {
    fail("expected a literal");
    return std::nullopt;
  }
  const bool flag = text_[pos_] == 't';
  if (!literal(flag ? "true" : "false")) return std::nullopt;
  return flag;
}

bool JsonReader::read_null() {
  const std::optional<Kind> kind = peek();
  if (!kind) return false;
  if (*kind != Kind::kNull) return fail("expected a literal");
  return literal("null");
}

bool JsonReader::skip_value() {
  const std::optional<Kind> kind = peek();
  if (!kind) return false;
  switch (*kind) {
    case Kind::kObject: {
      begin_object();
      std::string_view key;
      while (next_member(key)) {
        if (!skip_value()) return false;
      }
      return ok();
    }
    case Kind::kArray:
      begin_array();
      while (next_item()) {
        if (!skip_value()) return false;
      }
      return ok();
    case Kind::kString: return read_string().has_value();
    case Kind::kNumber: return read_number().has_value();
    case Kind::kBool: return read_bool().has_value();
    case Kind::kNull: return read_null();
  }
  return false;
}

bool JsonReader::finish() {
  if (!ok()) return false;
  skip_whitespace();
  if (pos_ != text_.size()) return fail("trailing characters after JSON document");
  return true;
}

bool JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return fail("malformed literal");
  pos_ += word.size();
  return true;
}

void JsonReader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::consume(char expected) {
  if (pos_ < text_.size() && text_[pos_] == expected) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::fail(const char* message) {
  if (error_.empty()) error_ = format("%s (at byte %zu)", message, pos_);
  return false;
}

// ---- DOM -------------------------------------------------------------------

std::optional<JsonValue> read_json_value(JsonReader& reader) {
  const std::optional<JsonReader::Kind> kind = reader.peek();
  if (!kind) return std::nullopt;
  switch (*kind) {
    case JsonReader::Kind::kObject: {
      reader.begin_object();
      std::vector<JsonValue::Member> members;
      std::string_view key;
      while (reader.next_member(key)) {
        std::string name(key);  // the key's view ends at the next read
        std::optional<JsonValue> value = read_json_value(reader);
        if (!value) return std::nullopt;
        members.emplace_back(std::move(name), std::move(*value));
      }
      if (!reader.ok()) return std::nullopt;
      return JsonValue::make_object(std::move(members));
    }
    case JsonReader::Kind::kArray: {
      reader.begin_array();
      std::vector<JsonValue> items;
      while (reader.next_item()) {
        std::optional<JsonValue> value = read_json_value(reader);
        if (!value) return std::nullopt;
        items.push_back(std::move(*value));
      }
      if (!reader.ok()) return std::nullopt;
      return JsonValue::make_array(std::move(items));
    }
    case JsonReader::Kind::kString: {
      const std::optional<std::string_view> text = reader.read_string();
      if (!text) return std::nullopt;
      return JsonValue::make_string(std::string(*text));
    }
    case JsonReader::Kind::kNumber: {
      const std::optional<JsonNumber> number = reader.read_number();
      if (!number) return std::nullopt;
      return JsonValue::make_number(*number);
    }
    case JsonReader::Kind::kBool: {
      const std::optional<bool> flag = reader.read_bool();
      if (!flag) return std::nullopt;
      return JsonValue::make_bool(*flag);
    }
    case JsonReader::Kind::kNull:
      if (!reader.read_null()) return std::nullopt;
      return JsonValue::make_null();
  }
  return std::nullopt;
}

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  JsonReader reader(text);
  std::optional<JsonValue> value = read_json_value(reader);
  if (value && !reader.finish()) value.reset();
  if (!value && error) *error = reader.error();
  return value;
}

}  // namespace smtu
