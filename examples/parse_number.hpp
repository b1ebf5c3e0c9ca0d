#pragma once

// Strict numeric command-line values for the example front-ends: the
// whole text must be one non-negative number. "77a7", "abc", "" and
// "-1" are all refused, where atoi/atof would quietly accept a prefix
// or wrap a negative into a huge unsigned value.

#include <charconv>
#include <string_view>
#include <system_error>

template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= T{})) return false;
  out = value;
  return true;
}
