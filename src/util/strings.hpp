// Small string helpers shared by config parsing and report rendering.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace faaspart::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string trim(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

namespace strf_detail {

/// Integers strf writes through to_chars. A stream writes bool as 0/1 and
/// the character types as characters, so those are left out: strf appends a
/// char as it is and rejects the rest.
template <typename T>
concept Integer = std::integral<T> && !std::same_as<T, bool> &&
                  !std::same_as<T, char> && !std::same_as<T, signed char> &&
                  !std::same_as<T, unsigned char> && !std::same_as<T, wchar_t> &&
                  !std::same_as<T, char8_t> && !std::same_as<T, char16_t> &&
                  !std::same_as<T, char32_t>;

template <typename T>
void append(std::string& out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.append(std::string_view(v));
  } else if constexpr (std::same_as<T, char>) {
    out.push_back(v);
  } else if constexpr (Integer<T>) {
    char buf[std::numeric_limits<T>::digits10 + 3];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::floating_point<T>) {
    // %g with precision 6: what an ostream writes with default flags.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 6)
                        .ptr);
  } else {
    static_assert(sizeof(T) == 0,
                  "strf takes strings, char, integers and floating point");
  }
}

}  // namespace strf_detail

/// Concatenating formatter: strf("x=", 3, " y=", 4.5) == "x=3 y=4.5". Pieces
/// read exactly as an ostream with default flags would write them; nothing
/// goes through a stream.
template <typename... Args>
std::string strf(const Args&... args) {
  std::string out;
  (strf_detail::append(out, args), ...);
  return out;
}

/// Fixed-precision double → string ("3.14" for fixed(3.14159, 2)).
std::string fixed(double v, int precision);

}  // namespace faaspart::util
