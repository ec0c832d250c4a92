#include "common/str_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace viewauth {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToUpperAscii(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string FormatWithCommas(long long value) {
  std::string out;
  AppendWithCommas(value, &out);
  return out;
}

void AppendWithCommas(long long value, std::string* out) {
  char digits[24];
  char* const end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  char grouped[32];
  char* cursor = grouped;
  const char* digit = digits;
  if (*digit == '-') *cursor++ = *digit++;
  const auto n = static_cast<size_t>(end - digit);
  for (size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) *cursor++ = ',';
    *cursor++ = digit[i];
  }
  out->append(grouped, static_cast<size_t>(cursor - grouped));
}

}  // namespace viewauth
