#ifndef PLANORDER_BASE_PARSE_NUMBER_H_
#define PLANORDER_BASE_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>
#include <type_traits>

namespace planorder {

/// Checked decimal conversion for text from outside the program (flags,
/// corpus lines, domain files): all of `text` must be a number that fits in
/// T — no whitespace, sign prefix '+' or trailing characters — and, for
/// floating point, a finite one.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace planorder

#endif  // PLANORDER_BASE_PARSE_NUMBER_H_
