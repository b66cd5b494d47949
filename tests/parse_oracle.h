// Reference parsers for the parser fuzz test (serve_test.cc): the
// strtoull-based serve::ParseRequest and the char-loop ParseUnsigned that
// the library shipped before both moved onto ParseDigitRun. They share no
// code with the library parsers, so a disagreement on any line is a
// behaviour change. The one intended change is a line holding a NUL
// byte: the reference walks line.c_str() and stops at the NUL, so it
// serves the prefix; the library rejects the line.

#ifndef HAMLET_TESTS_PARSE_ORACLE_H_
#define HAMLET_TESTS_PARSE_ORACLE_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "hamlet/common/status.h"

namespace hamlet {
namespace test {

inline Status OracleParseRequest(const std::string& line,
                                 const std::vector<uint32_t>& domains,
                                 std::vector<uint32_t>& codes) {
  codes.clear();
  const char* p = line.c_str();
  while (true) {
    while (*p == ' ' || *p == '\t' || *p == ',') ++p;
    if (*p == '\0') break;
    if (*p < '0' || *p > '9') {
      return Status::InvalidArgument(
          "expected an unsigned integer code, got \"" + line + "\"");
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    const size_t j = codes.size();
    if (j >= domains.size()) {
      return Status::InvalidArgument("more than " +
                                     std::to_string(domains.size()) +
                                     " fields");
    }
    if (v >= domains[j]) {
      return Status::OutOfRange(
          "code " + std::string(p, static_cast<size_t>(end - p)) +
          " outside feature " + std::to_string(j) + "'s domain [0, " +
          std::to_string(domains[j]) + ")");
    }
    codes.push_back(static_cast<uint32_t>(v));
    p = end;
  }
  if (codes.size() != domains.size()) {
    return Status::InvalidArgument(
        "got " + std::to_string(codes.size()) + " fields, model expects " +
        std::to_string(domains.size()));
  }
  return Status::OK();
}

inline Result<uint64_t> OracleParseUnsigned(const std::string& s) {
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

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_PARSE_ORACLE_H_
