// Minimal JSON / JSONL reader, plus the two scalar writers every JSON
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
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace metaopt::util {

/// One parsed JSON value. Objects keep key order irrelevant (lookup by
/// name); numbers are stored as double (exact for the counts the repo
/// serializes, all well below 2^53).
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
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte offset on malformed input or trailing garbage.
JsonValue parse_json(const std::string& text);

/// Reads a JSONL file: one JSON value per non-empty line. Throws
/// std::runtime_error (with the line number) on an unreadable file or a
/// malformed line.
std::vector<JsonValue> read_jsonl(const std::string& path);

/// Formats a double as "%.17g": shortest-exact, so identical doubles
/// always serialize to identical bytes (the sweep JSONL determinism
/// contract).
std::string json_number(double value);

/// Quotes and escapes `s` as a JSON string literal.
std::string json_string(const std::string& s);

}  // namespace metaopt::util
