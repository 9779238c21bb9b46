// Minimal string-building helpers (the toolchain lacks <format>).
#pragma once

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ringstab {

namespace fmt_detail {

template <typename T>
inline constexpr bool kStringLike =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<std::decay_t<T>, const char*> ||
    std::is_same_v<std::decay_t<T>, char*>;

// Integers a stream prints as decimal digits. bool prints as 1/0 and the
// char types print as characters (Value is an unsigned char), so those are
// not among them.
template <typename T>
inline constexpr bool kDecimalInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
    !std::is_same_v<T, unsigned char>;

template <typename T>
inline constexpr bool kAppendable =
    kStringLike<T> || std::is_same_v<T, char> || kDecimalInteger<T>;

/// Append what `std::ostream << part` would write, for a kAppendable type.
template <typename T>
void append(std::string& out, const T& part) {
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(part);
  } else if constexpr (kDecimalInteger<T>) {
    char buf[std::numeric_limits<T>::digits10 + 2];  // all digits + sign
    out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
  } else {
    out.append(std::string_view(part));
  }
}

}  // namespace fmt_detail

/// Concatenate the stream representations of all arguments. Strings, char
/// and decimal integers are appended directly; a call with any other
/// argument type formats every argument through one std::ostringstream.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  if constexpr ((fmt_detail::kAppendable<Ts> && ...)) {
    std::string out;
    (fmt_detail::append(out, parts), ...);
    return out;
  } else {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  }
}

/// Join container elements with a separator, using each element's stream
/// representation (or a projection).
template <typename Container, typename Proj>
std::string join(const Container& items, const std::string& sep, Proj proj) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << proj(item);
  }
  return os.str();
}

template <typename Container>
std::string join(const Container& items, const std::string& sep) {
  return join(items, sep, [](const auto& x) -> const auto& { return x; });
}

}  // namespace ringstab
