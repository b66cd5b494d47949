// Small string/formatting helpers shared across the library.

#ifndef HAMLET_COMMON_STRINGX_H_
#define HAMLET_COMMON_STRINGX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"

namespace hamlet {

/// Splits `s` on `sep`; keeps empty fields. Splitting "" yields {""}.
std::vector<std::string> SplitString(const std::string& s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string TrimString(const std::string& s);

/// Fixed-precision double formatting ("0.8537" for FormatDouble(0.8537, 4)).
std::string FormatDouble(double v, int precision);

/// Left-pads/truncates `s` to exactly `width` columns (for table printing).
std::string PadRight(const std::string& s, size_t width);
std::string PadLeft(const std::string& s, size_t width);

/// Strict base-10 unsigned parse: the whole string must be digits (no
/// sign, whitespace, or suffix — strtoull's silent acceptance of "-1"
/// and "12abc" is exactly what this guards against). Overflow past
/// 2^64-1 is rejected. The error message names the offending string.
HAMLET_NODISCARD Result<uint64_t> ParseUnsigned(const std::string& s);

}  // namespace hamlet

#endif  // HAMLET_COMMON_STRINGX_H_
