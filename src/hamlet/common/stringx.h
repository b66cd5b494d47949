// Small string/formatting helpers shared across the library.

#ifndef HAMLET_COMMON_STRINGX_H_
#define HAMLET_COMMON_STRINGX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"

namespace hamlet {

/// Splits `s` on `sep`; keeps empty fields. Splitting "" yields {""}.
std::vector<std::string> SplitString(const std::string& s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string TrimString(std::string_view s);

/// Fixed-precision double formatting ("0.8537" for FormatDouble(0.8537, 4)).
std::string FormatDouble(double v, int precision);

/// Left-pads/truncates `s` to exactly `width` columns (for table printing).
std::string PadRight(const std::string& s, size_t width);
std::string PadLeft(const std::string& s, size_t width);

/// The run of ASCII digits at the start of a string, read as base 10.
struct DigitRun {
  uint64_t value = 0;     ///< saturates at UINT64_MAX
  size_t length = 0;      ///< digits consumed; 0 = no leading digit
  bool overflow = false;  ///< the run's value exceeds UINT64_MAX
};

/// Reads the leading digit run of `s`: no sign, no whitespace, no base
/// prefix, and it stops at the first non-digit byte (NUL included). The
/// library's one integer parser; ParseUnsigned and the serving request
/// parser are both built on it.
inline DigitRun ParseDigitRun(std::string_view s) {
  DigitRun run;
  const size_t n = s.size();
  // Up to 19 digits always fit (10^19 - 1 < 2^64), so the common short
  // run needs no overflow test.
  const size_t safe = n < 19 ? n : 19;
  uint64_t v = 0;
  size_t i = 0;
  for (; i < safe; ++i) {
    const unsigned d = static_cast<unsigned char>(s[i]) - unsigned{'0'};
    if (d > 9) break;
    v = v * 10 + d;
  }
  if (i == safe) {
    for (; i < n; ++i) {
      const unsigned d = static_cast<unsigned char>(s[i]) - unsigned{'0'};
      if (d > 9) break;
      if (run.overflow || v > (UINT64_MAX - d) / 10) {
        run.overflow = true;
        v = UINT64_MAX;
      } else {
        v = v * 10 + d;
      }
    }
  }
  run.value = v;
  run.length = i;
  return run;
}

/// Strict base-10 unsigned parse: the whole string must be digits (no
/// sign, whitespace, or suffix — strtoull's silent acceptance of "-1"
/// and "12abc" is exactly what this guards against). Overflow past
/// 2^64-1 is rejected. The error message names the offending string.
HAMLET_NODISCARD Result<uint64_t> ParseUnsigned(std::string_view s);

}  // namespace hamlet

#endif  // HAMLET_COMMON_STRINGX_H_
