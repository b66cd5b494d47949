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

std::string TrimString(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
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

Result<uint64_t> ParseUnsigned(std::string_view s) {
  const DigitRun run = ParseDigitRun(s);
  // The overflow test comes first: a run that overflows before its first
  // non-digit byte is an overflow, whatever follows it.
  if (run.overflow) {
    return Status::OutOfRange("\"" + std::string(s) + "\" overflows 64 bits");
  }
  if (run.length == 0 || run.length != s.size()) {
    return Status::InvalidArgument(
        "expected an unsigned integer, got \"" + std::string(s) + "\"");
  }
  return run.value;
}

}  // namespace hamlet
