#include "util/jsonl.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace metaopt::util {

namespace {

[[noreturn]] void fail(const char* what, std::size_t pos) {
  throw std::runtime_error("json: " + std::string(what) + " at byte " +
                           std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage", pos_);
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape", pos_);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape", pos_);
          }
          // The writers only emit \u00xx control escapes; encode the
          // general case as UTF-8 anyway so foreign files round-trip.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape", pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value", pos_);
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number", start);
    return JsonValue::make_number(value, token);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error("json: value is not a " + std::string(want));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::Number) kind_error("number");
  return number_;
}

std::uint64_t JsonValue::as_uint64() const {
  if (kind_ != Kind::Number) kind_error("number");
  std::uint64_t value = 0;
  const char* end = string_.data() + string_.size();
  const auto [ptr, ec] = std::from_chars(string_.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error("json: " + string_ +
                             " is not an unsigned 64-bit integer");
  }
  return value;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::Array) kind_error("array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind_ == Kind::Number) ? v->number_ : def;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& def) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind_ == Kind::String) ? v->string_ : def;
}

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n, std::string token) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  v.string_ = std::move(token);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.object_ = std::move(members);
  return v;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace metaopt::util
