#ifndef RICD_COMMON_STRING_UTIL_H_
#define RICD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ricd {

/// Splits `input` on `delim`; empty fields are preserved ("a,,b" -> 3 parts).
std::vector<std::string_view> SplitString(std::string_view input, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimString(std::string_view input);

/// Parses a base-10 signed integer; rejects trailing garbage, empty input and
/// overflow. Returns false on failure leaving *out untouched.
bool ParseInt64(std::string_view input, int64_t* out);

/// Parses a base-10 unsigned integer; same contract as ParseInt64.
bool ParseUint64(std::string_view input, uint64_t* out);

/// Parses a floating-point value; same contract as ParseInt64.
bool ParseDouble(std::string_view input, double* out);

/// Reads environment variable `name` as a plain base-10 unsigned integer in
/// [min, max]. Returns `fallback` when the variable is unset, empty, holds
/// anything but digits or is out of range.
uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t min,
                 uint64_t max);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders `value` with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(uint64_t value);

}  // namespace ricd

#endif  // RICD_COMMON_STRING_UTIL_H_
