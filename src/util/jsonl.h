// Minimal JSON reader, plus the two scalar writers every JSON
// emitter in the repo shares (sweep JSONL, metrics dumps, bench reports).
//
// The reader parses the subset of JSON the repo actually emits — objects,
// arrays, strings with the standard escapes, numbers, booleans, null —
// into a small value tree, one self-contained recursive-descent parser
// with no external dependencies. Records are tolerant of keys the
// caller does not know (the optional trailing "metrics" object, future
// schema additions): consumers look fields up by name and ignore the
// rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace metaopt::util {

/// One parsed JSON value. Objects keep key order irrelevant (lookup by
/// name). A number keeps its literal token next to its double, because
/// the sweep records carry 64-bit seeds that a double would round:
/// as_uint64() reads the token exactly.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number's literal token as an unsigned 64-bit integer, exact at
  /// any size; throws unless the token is a plain decimal integer that
  /// fits.
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object member by key; nullptr when absent (or not an object) — the
  /// tolerance contract: unknown/missing keys are not errors.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Convenience lookups with defaults (nullptr-tolerant).
  [[nodiscard]] double number_or(const std::string& key, double def) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& def) const;

  // ---- construction (parser + tests) ----
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n, std::string token);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< a string's value, or a number's token
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte offset on malformed input or trailing garbage.
JsonValue parse_json(const std::string& text);

/// Formats a double as "%.17g": shortest-exact, so identical doubles
/// always serialize to identical bytes (the sweep JSONL determinism
/// contract).
std::string json_number(double value);

/// Quotes and escapes `s` as a JSON string literal.
std::string json_string(const std::string& s);

}  // namespace metaopt::util
