// Small string helpers (formatting, joining, strict number parsing)
// used across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace metaopt::util {

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// printf-style double formatting with trailing-zero trimming
/// ("12.5", "3", "0.0001").
std::string format_double(double value, int max_decimals = 6);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strict whole-token parses, shared by the sweep grammar and the CLI
/// flag tables: the entire string must be the number, so "", "2abc" and
/// " 5" fail instead of yielding a prefix or a silent 0.
/// parse_double takes strtod syntax for a finite value (no nan, no
/// inf, no overflow); parse_uint takes decimal digits only (no sign)
/// over the full 64-bit range.
std::optional<double> parse_double(const std::string& s);
std::optional<std::uint64_t> parse_uint(const std::string& s);

}  // namespace metaopt::util
