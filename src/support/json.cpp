#include "support/json.hpp"

#include <cmath>
#include <cstdlib>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {

std::string JsonWriter::escape(const std::string& text) {
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

void JsonWriter::before_value() {
  SMTU_CHECK_MSG(!emitted_root_ || !stack_.empty(), "JSON document already complete");
  if (!stack_.empty()) {
    if (stack_.back() == Scope::kObject) {
      SMTU_CHECK_MSG(pending_key_, "object member needs a key first");
      pending_key_ = false;
    } else if (!first_in_scope_.back()) {
      out_ << ',';
    }
    first_in_scope_.back() = false;
  } else {
    emitted_root_ = true;
  }
}

void JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_,
                 "mismatched end_object");
  out_ << '}';
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) emitted_root_ = true;
}

void JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray, "mismatched end_array");
  out_ << ']';
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) emitted_root_ = true;
}

void JsonWriter::key(const std::string& name) {
  SMTU_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                 "key outside of an object");
  SMTU_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!first_in_scope_.back()) out_ << ',';
  first_in_scope_.back() = false;
  out_ << '"' << escape(name) << "\":";
  pending_key_ = true;
  // before_value must not add another comma for this member.
  first_in_scope_.back() = true;
}

void JsonWriter::value(const std::string& text) {
  before_value();
  out_ << '"' << escape(text) << '"';
}

void JsonWriter::value(const char* text) { value(std::string(text)); }

void JsonWriter::value(double number) {
  before_value();
  if (std::isfinite(number)) {
    out_ << format("%.12g", number);
  } else {
    out_ << "null";  // JSON has no Inf/NaN
  }
}

void JsonWriter::value(i64 number) {
  before_value();
  out_ << format("%lld", static_cast<long long>(number));
}

void JsonWriter::value(u64 number) {
  before_value();
  out_ << format("%llu", static_cast<unsigned long long>(number));
}

void JsonWriter::value(bool flag) {
  before_value();
  out_ << (flag ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  out_ << "null";
}

void JsonWriter::raw(std::string_view text) {
  before_value();
  out_ << text;
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

double JsonValue::as_double() const {
  SMTU_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

// Both integer reads check the range first: converting a double outside
// the target type's range is undefined behaviour, not a wrap.
i64 JsonValue::as_i64() const {
  const double number = as_double();
  SMTU_CHECK_MSG(number >= -0x1p63 && number < 0x1p63, "JSON number is out of the i64 range");
  return static_cast<i64>(number);
}

u64 JsonValue::as_u64() const {
  const double number = as_double();
  SMTU_CHECK_MSG(number >= 0.0, "JSON number is negative");
  SMTU_CHECK_MSG(number < 0x1p64, "JSON number exceeds the u64 range");
  return static_cast<u64>(number);
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

// ---- parser ----------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> value = parse_value(0);
    if (value) {
      skip_whitespace();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON document");
        value.reset();
      }
    }
    if (!value && error) *error = error_;
    return value;
  }

 private:
  static constexpr usize kMaxDepth = 256;

  std::optional<JsonValue> parse_value(usize depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string();
      case 't': return parse_literal("true", JsonValue::make_bool(true));
      case 'f': return parse_literal("false", JsonValue::make_bool(false));
      case 'n': return parse_literal("null", JsonValue::make_null());
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_object(usize depth) {
    ++pos_;  // '{'
    std::vector<JsonValue::Member> members;
    skip_whitespace();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::optional<JsonValue> key = parse_string();
      if (!key) return std::nullopt;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' after object key");
      std::optional<JsonValue> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      members.emplace_back(key->as_string(), std::move(*value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue::make_object(std::move(members));
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> parse_array(usize depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_whitespace();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    while (true) {
      std::optional<JsonValue> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      items.push_back(std::move(*value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue::make_array(std::move(items));
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> parse_string() {
    ++pos_;  // opening quote
    std::string decoded;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return JsonValue::make_string(std::move(decoded));
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        decoded += c;
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': decoded += '"'; break;
        case '\\': decoded += '\\'; break;
        case '/': decoded += '/'; break;
        case 'b': decoded += '\b'; break;
        case 'f': decoded += '\f'; break;
        case 'n': decoded += '\n'; break;
        case 'r': decoded += '\r'; break;
        case 't': decoded += '\t'; break;
        case 'u': {
          std::optional<u32> code = parse_hex4();
          if (!code) return std::nullopt;
          u32 codepoint = *code;
          if (codepoint >= 0xD800 && codepoint <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            std::optional<u32> low = parse_hex4();
            if (!low) return std::nullopt;
            if (*low < 0xDC00 || *low > 0xDFFF) return fail("invalid low surrogate");
            codepoint = 0x10000 + ((codepoint - 0xD800) << 10) + (*low - 0xDC00);
          } else if (codepoint >= 0xDC00 && codepoint <= 0xDFFF) {
            return fail("unpaired UTF-16 surrogate");
          }
          append_utf8(decoded, codepoint);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  std::optional<u32> parse_hex4() {
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

  static void append_utf8(std::string& out, u32 codepoint) {
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

  std::optional<JsonValue> parse_number() {
    const usize begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed number");
    if (text_[pos_] == '0') {
      ++pos_;  // leading zeros are not allowed
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed fraction");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) return fail("malformed exponent");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(number)) {
      return fail("number out of range");
    }
    return JsonValue::make_number(number);
  }

  std::optional<JsonValue> parse_literal(std::string_view literal, JsonValue value) {
    if (text_.substr(pos_, literal.size()) != literal) return fail("malformed literal");
    pos_ += literal.size();
    return value;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(const std::string& message) {
    if (error_.empty()) error_ = format("%s (at byte %zu)", message.c_str(), pos_);
    return std::nullopt;
  }

  std::string_view text_;
  usize pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

}  // namespace smtu
