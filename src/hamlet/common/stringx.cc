#include "hamlet/common/stringx.h"

#include <cctype>
#include <cstdio>

namespace hamlet {

std::vector<std::string> SplitString(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string TrimString(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

std::string PadLeft(const std::string& s, size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return std::string(width - s.size(), ' ') + s;
}

Result<uint64_t> ParseUnsigned(const std::string& s) {
  if (s.empty()) {
    return Status::InvalidArgument("expected an unsigned integer, got \"\"");
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          "expected an unsigned integer, got \"" + s + "\"");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("\"" + s + "\" overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace hamlet
