#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ricd {

std::vector<std::string_view> SplitString(std::string_view input, char delim) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      parts.push_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view TrimString(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) --end;
  return input.substr(begin, end - begin);
}

bool ParseInt64(std::string_view input, int64_t* out) {
  input = TrimString(input);
  if (input.empty()) return false;
  // strtoll needs a NUL-terminated buffer; string_views into larger lines
  // are not terminated at the field boundary.
  std::string buf(input);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseUint64(std::string_view input, uint64_t* out) {
  input = TrimString(input);
  if (input.empty() || input[0] == '-') return false;
  std::string buf(input);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(std::string_view input, double* out) {
  input = TrimString(input);
  if (input.empty()) return false;
  std::string buf(input);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t min,
                 uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view value(env);
  uint64_t parsed = 0;
  if (value.find_first_not_of("0123456789") != std::string_view::npos ||
      !ParseUint64(value, &parsed) || parsed < min || parsed > max) {
    return fallback;
  }
  return parsed;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string FormatWithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace ricd
