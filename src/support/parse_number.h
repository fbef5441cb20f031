// The one strict number reader for the text the program reads back:
// .repro files, sweep checkpoints, omxadv state files and CLI options.
//
// A value parses only if every byte of it is a decimal digit of a value
// that fits the field: no sign on an unsigned field, no surrounding
// whitespace, no trailing bytes, nothing out of the field's range. A double
// must be finite. Anything else is refused, so a mangled "n=12abc" is an
// error instead of n=12, and "n=-8" is an error instead of 4294967288.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace omx {

/// Parse all of `text` into `*out` (an unsigned integer or a double).
/// Returns false, leaving `*out` untouched, unless the whole text is one
/// in-range value.
template <class T>
bool parse_number(std::string_view text, T* out) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>,
                "fields read back from text are unsigned or double");
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace omx
