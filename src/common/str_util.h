// Small string helpers shared across viewauth modules.

#ifndef VIEWAUTH_COMMON_STR_UTIL_H_
#define VIEWAUTH_COMMON_STR_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace viewauth {

// Joins the elements of `parts` with `sep`. Elements must be streamable.
template <typename Container>
std::string Join(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out << sep;
    out << part;
    first = false;
  }
  return out.str();
}

// Splits `input` on `delim`, trimming nothing. Empty segments are kept.
std::vector<std::string> Split(std::string_view input, char delim);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

// ASCII case conversions (locale-independent).
std::string ToUpperAscii(std::string_view input);
std::string ToLowerAscii(std::string_view input);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b);

// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// The number of characters in the decimal form of `value`, with
// thousands separators when `commas` is set.
size_t DecimalSize(long long value, bool commas);
// Writes the decimal form of `value` at `out`, with thousands separators
// when `commas` is set ("250,000"), and returns the end of what it
// wrote: DecimalSize(value, commas) characters, which `out` must have
// room for. The one grouping implementation; the table printer writes
// integer cells with it straight into the output.
char* WriteDecimal(long long value, bool commas, char* out);

// Formats an int64 with thousands separators, e.g. 250000 -> "250,000".
std::string FormatWithCommas(long long value);

}  // namespace viewauth

#endif  // VIEWAUTH_COMMON_STR_UTIL_H_
