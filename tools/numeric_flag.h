// Typed numeric command-line flags, shared by the tools. Every numeric flag
// is read through parse_number: the whole text must parse as a T inside the
// flag's Range, so "12abc", "", "nan" or an out-of-range value never runs
// silently. A tool exits 2, its usage status, when parse_number rejects one.
#pragma once

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace h3cdn::tools {

// The accepted values of a numeric flag: lo..hi, each end open or closed.
struct Range {
  double lo;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
inline constexpr Range kAtLeastOne{1};
inline constexpr Range kNonNegative{0};
inline constexpr Range kPositive{0, std::numeric_limits<double>::infinity(), true};
inline constexpr Range kLossRate{0, 1, false, true};

/// `text` as a T inside `range`, or std::nullopt after a message on stderr
/// naming `flag`, what it takes and what it got.
template <typename T>
std::optional<T> parse_number(std::string_view flag, std::string_view text, Range range) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  const auto v = static_cast<double>(value);
  const bool parsed = !text.empty() && ec == std::errc() && stop == end && std::isfinite(v);
  if (parsed && (range.lo_open ? v > range.lo : v >= range.lo) &&
      (range.hi_open ? v < range.hi : v <= range.hi)) {
    return value;
  }
  std::cerr << flag << " takes " << (std::is_integral_v<T> ? "an integer" : "a number")
            << (range.lo_open ? " > " : " >= ") << range.lo;
  if (std::isfinite(range.hi)) std::cerr << (range.hi_open ? " and < " : " and <= ") << range.hi;
  std::cerr << ", got '" << text << "'\n";
  return std::nullopt;
}

}  // namespace h3cdn::tools
