#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace metaopt::util {

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int max_decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_decimals, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s.empty() || s == "-0") return "0";
  return s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // strtod takes "nan" and "inf", and overflows to inf.
  if (*end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_uint(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace metaopt::util
